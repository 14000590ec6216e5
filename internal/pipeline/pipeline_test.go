package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// collectInts attaches a sink that appends every batched element to a
// shared slice and returns an accessor for it.
func collectInts(p *Pipeline, in Flow[[]int]) func() []int {
	var mu sync.Mutex
	var got []int
	Sink(p, "collect", in, func(_ context.Context, b []int) {
		mu.Lock()
		got = append(got, b...)
		mu.Unlock()
	})
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), got...)
	}
}

func TestPipelineDeliversAllInOrder(t *testing.T) {
	const n = 10000
	p := New(context.Background())
	src := Source(p, "gen", 32, func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < n; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	doubled := Map(p, "double", 32, src, func(_ context.Context, v int) (int, bool) {
		return v * 2, true
	})
	batches := Batch(p, "batch", 8, doubled, 64, time.Millisecond, nil)
	got := collectInts(p, batches)
	p.Wait()

	out := got()
	if len(out) != n {
		t.Fatalf("delivered %d events, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
	st := p.StageStats("double")
	if st.In != n || st.Out != n {
		t.Fatalf("double stage stats in=%d out=%d, want %d/%d", st.In, st.Out, n, n)
	}
	if bs := p.StageStats("batch"); bs.In != n {
		t.Fatalf("batch stage saw %d events, want %d", bs.In, n)
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
	p.Wait()
	if n.Load() != 50 {
		t.Fatalf("sink saw %d items, want 50", n.Load())
	}
	if st := p.StageStats("evens"); st.In != 100 || st.Out != 50 {
		t.Fatalf("stage stats in=%d out=%d, want 100/50", st.In, st.Out)
	}
}

func TestBatchFlushesPartialOnInterval(t *testing.T) {
	p := New(context.Background())
	in := make(chan int)
	src := From(p, "feed", 8, in)
	batches := Batch(p, "batch", 8, src, 1000, 5*time.Millisecond, nil)
	got := make(chan []int, 1)
	Sink(p, "collect", batches, func(_ context.Context, b []int) {
		select {
		case got <- b:
		default:
		}
	})
	in <- 1
	in <- 2
	select {
	case b := <-got:
		if len(b) != 2 {
			t.Fatalf("interval flush delivered %d events, want 2", len(b))
		}
	case <-time.After(time.Second):
		t.Fatal("partial batch never flushed on interval")
	}
	close(in)
	p.Wait()
}

func TestStopDrainsAcceptedItems(t *testing.T) {
	p := New(context.Background())
	in := make(chan int, 16)
	for i := 0; i < 16; i++ {
		in <- i
	}
	src := From(p, "feed", 16, in)
	batches := Batch(p, "batch", 8, src, 4, time.Hour, nil)
	got := collectInts(p, batches)

	// Give the source time to accept the backlog, then stop without
	// closing the feed: everything accepted must still reach the sink.
	deadline := time.Now().Add(time.Second)
	for p.StageStats("feed").Out < 16 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	if out := got(); len(out) != 16 {
		t.Fatalf("drained %d events after Stop, want 16", len(out))
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
		p.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parent cancellation did not unwind the pipeline")
	}
}

func TestSlicePoolRecycles(t *testing.T) {
	sp := NewSlicePool[int](8, 4)
	s := sp.Get()
	if cap(s) != 8 || len(s) != 0 {
		t.Fatalf("Get: len=%d cap=%d, want 0/8", len(s), cap(s))
	}
	s = append(s, 1, 2, 3)
	sp.Put(s)
	r := sp.Get()
	if len(r) != 0 {
		t.Fatalf("recycled slice has len %d, want 0", len(r))
	}
	if cap(r) != 8 {
		t.Fatalf("recycled slice has cap %d, want 8", cap(r))
	}
	if &r[:1][0] != &s[:1][0] {
		t.Fatal("Get did not return the recycled backing array")
	}
}

// TestQuickStopNeverLosesAcceptedEvents is the core pipeline invariant
// under random cancellation: every event accepted into stage 1 (emit
// returned true) is delivered exactly once, in order — no loss, no
// duplication — regardless of when Stop lands.
func TestQuickStopNeverLosesAcceptedEvents(t *testing.T) {
	f := func(nEvents, stopAfterUS uint16, batchSize, stageBuf uint8) bool {
		n := int(nEvents)%2000 + 1
		size := int(batchSize)%32 + 1
		buf := int(stageBuf)%16 + 1

		p := New(context.Background())
		var accepted atomic.Int64
		src := Source(p, "gen", buf, func(_ context.Context, emit func(int) bool) error {
			for i := 0; i < n; i++ {
				if !emit(i) {
					return nil
				}
				accepted.Add(1)
			}
			return nil
		})
		mapped := Map(p, "id", buf, src, func(_ context.Context, v int) (int, bool) {
			return v, true
		})
		batches := Batch(p, "batch", buf, mapped, size, time.Millisecond, nil)
		got := collectInts(p, batches)

		stopDelay := time.Duration(stopAfterUS%500) * time.Microsecond
		timer := time.AfterFunc(stopDelay, p.Stop)
		defer timer.Stop()
		p.Wait()
		p.Stop() // idempotent; ensures the drain finished before we read

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

// TestQuickAbortNeverDuplicates: an abort may drop in-flight events, but
// must never deliver one twice or out of order, and must terminate.
func TestQuickAbortNeverDuplicates(t *testing.T) {
	f := func(nEvents, abortAfterUS uint16, batchSize uint8) bool {
		n := int(nEvents)%2000 + 1
		size := int(batchSize)%32 + 1

		p := New(context.Background())
		src := Source(p, "gen", 4, func(_ context.Context, emit func(int) bool) error {
			for i := 0; i < n; i++ {
				if !emit(i) {
					return nil
				}
			}
			return nil
		})
		batches := Batch(p, "batch", 4, src, size, time.Millisecond, nil)
		got := collectInts(p, batches)

		abortDelay := time.Duration(abortAfterUS%300) * time.Microsecond
		timer := time.AfterFunc(abortDelay, p.Abort)
		defer timer.Stop()
		p.Wait()
		p.Abort()

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
	p.Wait()
	st := p.StageStats("gen")
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
	p.Wait()

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
	if st := p.StageStats("work"); st.Out != 10 {
		t.Errorf("work out = %d, want 10", st.Out)
	}
	if st := p.StageStats("work#2"); st.In != 10 || st.Out != 5 {
		t.Errorf("work#2 in/out = %d/%d, want 10/5", st.In, st.Out)
	}
}
