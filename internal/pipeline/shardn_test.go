package pipeline

import (
	"context"
	"sync"
	"testing"
)

type keyed struct {
	key, n int
}

func TestShardNPreservesPerKeyOrder(t *testing.T) {
	p := New(context.Background())
	const keys, perKey = 8, 200
	in := Source(p, "gen", 4, func(ctx context.Context, emit func(keyed) bool) error {
		for n := 0; n < perKey; n++ {
			for k := 0; k < keys; k++ {
				if !emit(keyed{key: k, n: n}) {
					return nil
				}
			}
		}
		return nil
	})
	var mu sync.Mutex
	lanes := map[int][]int{} // goroutine-identity check: lane id per key
	out := ShardN(p, "work", 4, 4, in, func(v keyed) int { return v.key },
		func(ctx context.Context, v keyed) (keyed, bool) {
			mu.Lock()
			lanes[v.key] = append(lanes[v.key], v.n)
			mu.Unlock()
			return v, true
		})
	got := map[int][]int{}
	Sink(p, "collect", out, func(ctx context.Context, v keyed) {
		got[v.key] = append(got[v.key], v.n)
	})
	wait(p)
	total := 0
	for k := 0; k < keys; k++ {
		seq := got[k]
		total += len(seq)
		if len(seq) != perKey {
			t.Fatalf("key %d: %d items, want %d", k, len(seq), perKey)
		}
		for i, n := range seq {
			if n != i {
				t.Fatalf("key %d out of order at %d: got %d", k, i, n)
			}
		}
		// The lane's own view is FIFO too (single goroutine per key).
		for i, n := range lanes[k] {
			if n != i {
				t.Fatalf("key %d processed out of order at %d: got %d", k, i, n)
			}
		}
	}
	if total != keys*perKey {
		t.Fatalf("total = %d, want %d", total, keys*perKey)
	}
}

func TestShardNSingleWorkerDegeneratesToMap(t *testing.T) {
	p := New(context.Background())
	in := Source(p, "gen", 0, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; i < 100; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	out := ShardN(p, "work", 0, 1, in, func(v int) int { return v },
		func(ctx context.Context, v int) (int, bool) {
			return v * 2, v%10 != 9 // drop every tenth
		})
	var got []int
	Sink(p, "collect", out, func(ctx context.Context, v int) {
		got = append(got, v)
	})
	wait(p)
	if len(got) != 90 {
		t.Fatalf("got %d items, want 90", len(got))
	}
	prev := -1
	for _, v := range got {
		if v <= prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestShardNDropAndFanIn(t *testing.T) {
	p := New(context.Background())
	const n = 1000
	in := Source(p, "gen", 8, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; i < n; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	out := ShardN(p, "work", 8, 3, in, func(v int) int { return v % 5 },
		func(ctx context.Context, v int) (int, bool) {
			return v, v%2 == 0 // keep evens only
		})
	seen := map[int]bool{}
	Sink(p, "collect", out, func(ctx context.Context, v int) {
		if seen[v] {
			t.Errorf("duplicate %d", v)
		}
		seen[v] = true
	})
	wait(p)
	if len(seen) != n/2 {
		t.Fatalf("got %d items, want %d", len(seen), n/2)
	}
}
