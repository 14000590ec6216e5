package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// MapN must emit outputs in input order regardless of worker count or how
// long individual fn calls take — that total-order guarantee is what
// preserves per-key (per-FID, per-source) event order downstream.
func TestMapNPreservesOrder(t *testing.T) {
	const n = 5000
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			p := New(context.Background())
			src := Source(p, "gen", 16, func(_ context.Context, emit func(int) bool) error {
				for i := 0; i < n; i++ {
					if !emit(i) {
						return nil
					}
				}
				return nil
			})
			var inFlight, maxInFlight atomic.Int64
			mapped := MapN(p, "work", 16, workers, src, func(_ context.Context, v int) (int, bool) {
				cur := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
						break
					}
				}
				if v%97 == 0 {
					time.Sleep(time.Millisecond) // jitter: slow items must not be overtaken
				}
				inFlight.Add(-1)
				if v%5 == 0 {
					return 0, false // dropped items must not disturb the order
				}
				return v * 10, true
			})
			got := collectInts(p, mapped)
			wait(p)

			out := got()
			want := 0
			for i := 0; i < n; i++ {
				if i%5 == 0 {
					continue
				}
				if want >= len(out) || out[want] != i*10 {
					t.Fatalf("output position %d: got %v..., want %d", want, out[want:min(want+3, len(out))], i*10)
				}
				want++
			}
			if want != len(out) {
				t.Fatalf("delivered %d items, want %d", len(out), want)
			}
			if workers > 1 && maxInFlight.Load() < 2 {
				t.Errorf("fn calls never overlapped with %d workers", workers)
			}
			st := stageStats(p, "work")
			if st.In != n || st.Out != uint64(len(out)) {
				t.Errorf("stage stats in=%d out=%d, want %d/%d", st.In, st.Out, n, len(out))
			}
		})
	}
}

// Property: under random worker counts, buffer sizes, and stop timing, a
// graceful Drain loses nothing — every item accepted by the source comes
// out the other end, still in order.
func TestQuickMapNStopNeverLosesAccepted(t *testing.T) {
	f := func(nEvents, stopAfterUS uint16, workerSeed, stageBuf uint8) bool {
		n := int(nEvents)%2000 + 1
		workers := int(workerSeed)%6 + 1
		buf := int(stageBuf)%16 + 1

		p := New(context.Background())
		var accepted atomic.Int64
		src := Source(p, "gen", buf, count(n, &accepted))
		mapped := MapN(p, "id", buf, workers, src, func(_ context.Context, v int) (int, bool) {
			return v, true
		})
		got := collectInts(p, mapped)

		time.Sleep(time.Duration(stopAfterUS%500) * time.Microsecond)
		p.Drain(0)

		out := got()
		if int64(len(out)) != accepted.Load() {
			t.Logf("workers=%d: accepted %d events but delivered %d", workers, accepted.Load(), len(out))
			return false
		}
		for i, v := range out {
			if v != i {
				t.Logf("workers=%d: out[%d] = %d: order violated or duplicate", workers, i, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Canceling the parent context unwinds MapN's dispatcher, workers, and
// resequencer even when they are blocked mid-handoff (a slower stage
// downstream keeps them backed up); the delivered prefix stays ordered and
// duplicate-free.
func TestMapNAbortUnwinds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(ctx)
	src := Source(p, "gen", 4, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; ; i++ {
			if !emit(i) {
				return nil
			}
		}
	})
	mapped := MapN(p, "slow", 4, 4, src, func(ctx context.Context, v int) (int, bool) {
		select {
		case <-ctx.Done():
		case <-time.After(100 * time.Microsecond):
		}
		return v, true
	})
	backlog := Map(p, "backlog", 1, mapped, func(_ context.Context, v int) (int, bool) {
		time.Sleep(time.Millisecond)
		return v, true
	})
	got := collectInts(p, backlog)

	time.AfterFunc(10*time.Millisecond, cancel)
	done := make(chan struct{})
	go func() { wait(p); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not unwind MapN")
	}
	out := got()
	seen := map[int]bool{}
	last := -1
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate item %d after abort", v)
		}
		seen[v] = true
		if v < last {
			t.Fatalf("order violated after abort: %d after %d", v, last)
		}
		last = v
	}
}
