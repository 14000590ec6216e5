package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// collectInts attaches a sink that appends every element to a shared slice
// and returns an accessor for it.
func collectInts(p *Pipeline, in Flow[int]) func() []int {
	var mu sync.Mutex
	var got []int
	Sink(p, "collect", in, func(_ context.Context, v int) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), got...)
	}
}

// wait blocks until every stage of p has exited on its own (its source
// exhausted and the stages drained).
func wait(p *Pipeline) { p.wg.Wait() }

// stageStats returns the named stage's snapshot (zero Stats if absent).
func stageStats(p *Pipeline, name string) Stats {
	for _, st := range p.Stats() {
		if st.Name == name {
			return st
		}
	}
	return Stats{}
}

// count emits 0..n-1, stopping early once the pipeline drains; accepted,
// when non-nil, counts the items emit took.
func count(n int, accepted *atomic.Int64) func(context.Context, func(int) bool) error {
	return func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < n; i++ {
			if !emit(i) {
				return nil
			}
			if accepted != nil {
				accepted.Add(1)
			}
		}
		return nil
	}
}

func TestPipelineDeliversAllInOrder(t *testing.T) {
	const n = 10000
	p := New(context.Background())
	src := Source(p, "gen", 32, count(n, nil))
	doubled := Map(p, "double", 32, src, func(_ context.Context, v int) (int, bool) {
		return v * 2, true
	})
	got := collectInts(p, doubled)
	wait(p)

	out := got()
	if len(out) != n {
		t.Fatalf("delivered %d events, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
	st := stageStats(p, "double")
	if st.In != n || st.Out != n {
		t.Fatalf("double stage stats in=%d out=%d, want %d/%d", st.In, st.Out, n, n)
	}
	if cs := stageStats(p, "collect"); cs.In != n {
		t.Fatalf("sink saw %d events, want %d", cs.In, n)
	}
}

func TestMapDropsFilteredItems(t *testing.T) {
	p := New(context.Background())
	src := Source(p, "gen", 8, func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < 100; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	evens := Map(p, "evens", 8, src, func(_ context.Context, v int) (int, bool) {
		return v, v%2 == 0
	})
	var n atomic.Int64
	Sink(p, "count", evens, func(_ context.Context, _ int) { n.Add(1) })
	wait(p)
	if n.Load() != 50 {
		t.Fatalf("sink saw %d items, want 50", n.Load())
	}
	if st := stageStats(p, "evens"); st.In != 100 || st.Out != 50 {
		t.Fatalf("stage stats in=%d out=%d, want 100/50", st.In, st.Out)
	}
}

// TestStopDrainsAcceptedItems: Drain stops a source that would run on, and
// everything it had accepted still reaches the sink.
func TestStopDrainsAcceptedItems(t *testing.T) {
	p := New(context.Background())
	src := Source(p, "feed", 16, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; i < 16; i++ {
			if !emit(i) {
				return nil
			}
		}
		<-ctx.Done() // a feed that never ends on its own
		return nil
	})
	slow := Map(p, "slow", 1, src, func(_ context.Context, v int) (int, bool) {
		time.Sleep(time.Millisecond)
		return v, true
	})
	got := collectInts(p, slow)

	// Wait until the source has accepted the backlog, then drain while
	// most of it is still queued: all of it must reach the sink.
	deadline := time.Now().Add(time.Second)
	for stageStats(p, "feed").Out < 16 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.Drain(0)
	if out := got(); len(out) != 16 {
		t.Fatalf("drained %d events, want 16", len(out))
	}
}

func TestDrainEscalatesWhenSinkBlocks(t *testing.T) {
	p := New(context.Background())
	src := Source(p, "gen", 1, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; ; i++ {
			if !emit(i) {
				return nil
			}
		}
	})
	Sink(p, "stuck", src, func(ctx context.Context, _ int) {
		<-ctx.Done() // consumer that went away: blocks until abort
	})
	done := make(chan struct{})
	go func() {
		p.Drain(50 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not escalate to Abort past its grace period")
	}
}

func TestParentCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(ctx)
	src := Source(p, "gen", 1, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; ; i++ {
			if !emit(i) {
				return nil
			}
		}
	})
	Sink(p, "stuck", src, func(ctx context.Context, _ int) { <-ctx.Done() })
	cancel()
	done := make(chan struct{})
	go func() {
		p.Drain(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parent cancellation did not unwind the pipeline")
	}
}

// TestQuickStopNeverLosesAcceptedEvents is the core pipeline invariant
// under random shutdown timing: every event accepted into stage 1 (emit
// returned true) is delivered exactly once, in order — no loss, no
// duplication — regardless of when Drain lands.
func TestQuickStopNeverLosesAcceptedEvents(t *testing.T) {
	f := func(nEvents, stopAfterUS uint16, stageBuf uint8) bool {
		n := int(nEvents)%2000 + 1
		buf := int(stageBuf)%16 + 1

		p := New(context.Background())
		var accepted atomic.Int64
		src := Source(p, "gen", buf, count(n, &accepted))
		mapped := Map(p, "id", buf, src, func(_ context.Context, v int) (int, bool) {
			return v, true
		})
		got := collectInts(p, mapped)

		time.Sleep(time.Duration(stopAfterUS%500) * time.Microsecond)
		p.Drain(0)

		out := got()
		if int64(len(out)) != accepted.Load() {
			t.Logf("accepted %d events but delivered %d", accepted.Load(), len(out))
			return false
		}
		for i, v := range out {
			if v != i {
				t.Logf("out[%d] = %d: order violated or duplicate", i, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAbortNeverDuplicates: canceling the parent context may drop
// in-flight events, but must never deliver one twice or out of order, and
// must terminate.
func TestQuickAbortNeverDuplicates(t *testing.T) {
	f := func(nEvents, abortAfterUS uint16) bool {
		n := int(nEvents)%2000 + 1

		ctx, cancel := context.WithCancel(context.Background())
		p := New(ctx)
		src := Source(p, "gen", 4, count(n, nil))
		mapped := Map(p, "id", 4, src, func(_ context.Context, v int) (int, bool) {
			return v, true
		})
		got := collectInts(p, mapped)

		time.Sleep(time.Duration(abortAfterUS%300) * time.Microsecond)
		cancel()
		p.Drain(0)

		prev := -1
		for _, v := range got() {
			if v <= prev {
				t.Logf("saw %d after %d: duplicate or reorder under abort", v, prev)
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsTrackBackpressure(t *testing.T) {
	p := New(context.Background())
	src := Source(p, "gen", 1, func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < 64; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	Sink(p, "slow", src, func(_ context.Context, _ int) {
		time.Sleep(100 * time.Microsecond)
	})
	wait(p)
	st := stageStats(p, "gen")
	if st.Out != 64 {
		t.Fatalf("gen emitted %d, want 64", st.Out)
	}
	if st.Blocked == 0 {
		t.Fatal("expected nonzero blocked-time against a slow sink")
	}
	if st.QueuePeak == 0 {
		t.Fatal("expected nonzero queue high-water mark")
	}
}

func TestDuplicateStageNamesGetSuffixed(t *testing.T) {
	p := New(context.Background())
	src := Source(p, "gen", 8, func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < 10; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	// Two stages registered under the same name: the second must not
	// shadow the first in StageStats or collide in telemetry namespaces.
	a := Map(p, "work", 8, src, func(_ context.Context, v int) (int, bool) { return v, true })
	b := Map(p, "work", 8, a, func(_ context.Context, v int) (int, bool) { return v, v%2 == 0 })
	Sink(p, "sink", b, func(_ context.Context, _ int) {})
	wait(p)

	names := make([]string, 0, 4)
	for _, st := range p.Stats() {
		names = append(names, st.Name)
	}
	want := []string{"gen", "work", "work#2", "sink"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
	if st := stageStats(p, "work"); st.Out != 10 {
		t.Errorf("work out = %d, want 10", st.Out)
	}
	if st := stageStats(p, "work#2"); st.In != 10 || st.Out != 5 {
		t.Errorf("work#2 in/out = %d/%d, want 10/5", st.In, st.Out)
	}
}
