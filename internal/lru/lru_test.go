package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBasicSetGet(t *testing.T) {
	c := New[string, int](2)
	c.Set("a", 1)
	c.Set("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d, %v", v, ok)
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("Get(c) unexpectedly present")
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[int, int](3)
	c.Set(1, 1)
	c.Set(2, 2)
	c.Set(3, 3)
	c.Get(1)    // 1 now MRU; LRU order: 2,3
	c.Set(4, 4) // evicts 2
	if c.Contains(2) {
		t.Error("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if !c.Contains(k) {
			t.Errorf("%d should be present", k)
		}
	}
}

func TestUpdateExisting(t *testing.T) {
	c := New[string, int](2)
	c.Set("a", 1)
	if evicted := c.Set("a", 10); evicted {
		t.Error("update reported eviction")
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("Get(a) = %d, want 10", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestDelete(t *testing.T) {
	c := New[string, int](2)
	c.Set("a", 1)
	if !c.Delete("a") {
		t.Error("Delete(a) = false")
	}
	if c.Delete("a") {
		t.Error("second Delete(a) = true")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
	// Deleting head/tail/middle keeps the list consistent.
	c = New[string, int](4)
	for _, k := range []string{"w", "x", "y", "z"} {
		c.Set(k, 0)
	}
	c.Delete("z") // head (MRU)
	c.Delete("w") // tail (LRU)
	c.Delete("x") // middle
	if got := c.Keys(); len(got) != 1 || got[0] != "y" {
		t.Errorf("Keys = %v, want [y]", got)
	}
}

func TestKeysOrder(t *testing.T) {
	c := New[int, int](3)
	c.Set(1, 0)
	c.Set(2, 0)
	c.Set(3, 0)
	c.Get(1)
	want := []int{1, 3, 2} // MRU to LRU
	got := c.Keys()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestOnEvict(t *testing.T) {
	var evicted []string
	c := NewWithEvict[string, int](2, func(k string, v int) { evicted = append(evicted, k) })
	c.Set("a", 1)
	c.Set("b", 2)
	c.Set("c", 3)
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Errorf("evicted = %v, want [a]", evicted)
	}
}

// Regression: the eviction callback runs after the cache lock is released,
// so it may re-enter the cache. Before the fix this deadlocked on Set's
// (non-reentrant) mutex.
func TestOnEvictMayReenter(t *testing.T) {
	done := make(chan struct{})
	var c *Cache[int, int]
	var evicted []int
	c = NewWithEvict[int, int](2, func(k, v int) {
		evicted = append(evicted, k)
		c.Get(k) // re-entrant lookup of the (gone) victim
		c.Contains(k + 100)
	})
	go func() {
		defer close(done)
		c.Set(1, 1)
		c.Set(2, 2)
		c.Set(3, 3) // evicts 1
		c.Resize(1) // evicts 2
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("eviction callback deadlocked against the cache lock")
	}
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Errorf("evicted = %v, want [1 2]", evicted)
	}
	if c.Contains(1) || c.Contains(2) {
		t.Error("victims still present when the callback ran")
	}
}

func TestStats(t *testing.T) {
	c := New[int, int](2)
	c.Set(1, 1)
	c.Get(1)
	c.Get(2)
	c.Set(2, 2)
	c.Set(3, 3) // evicts 1
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %f, want 0.5", hr)
	}
	c.ResetStats()
	if s := c.Stats(); s.Hits+s.Misses+s.Evictions != 0 {
		t.Errorf("after reset: %+v", s)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := New[int, int](2)
	c.Set(1, 1)
	c.Set(2, 2)
	if v, ok := c.Peek(1); !ok || v != 1 {
		t.Fatalf("Peek = %d, %v", v, ok)
	}
	c.Set(3, 3) // should evict 1 despite the Peek
	if c.Contains(1) {
		t.Error("Peek promoted entry")
	}
	if _, ok := c.Peek(99); ok {
		t.Error("Peek(99) present")
	}
}

func TestPurge(t *testing.T) {
	c := New[int, int](4)
	for i := 0; i < 4; i++ {
		c.Set(i, i)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len = %d after purge", c.Len())
	}
	c.Set(9, 9)
	if v, ok := c.Get(9); !ok || v != 9 {
		t.Error("cache unusable after purge")
	}
}

func TestResize(t *testing.T) {
	c := New[int, int](4)
	for i := 0; i < 4; i++ {
		c.Set(i, i)
	}
	c.Resize(2)
	if c.Len() != 2 {
		t.Errorf("Len = %d after shrink", c.Len())
	}
	// The two most recently used (2, 3) survive.
	if !c.Contains(2) || !c.Contains(3) {
		t.Errorf("wrong survivors: %v", c.Keys())
	}
	c.Resize(10)
	if c.Cap() != 10 {
		t.Errorf("Cap = %d", c.Cap())
	}
}

func TestNewPanics(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New[int, int](n)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Resize(0) did not panic")
			}
		}()
		New[int, int](1).Resize(0)
	}()
}

// Property: the cache never exceeds capacity, and a Get immediately after a
// Set observes the value.
func TestInvariantsQuick(t *testing.T) {
	f := func(ops []uint16, capSeed uint8) bool {
		capacity := int(capSeed)%20 + 1
		c := New[uint8, uint16](capacity)
		for _, op := range ops {
			k := uint8(op % 37)
			switch op % 3 {
			case 0:
				c.Set(k, op)
				if v, ok := c.Get(k); !ok || v != op {
					return false
				}
			case 1:
				c.Get(k)
			case 2:
				c.Delete(k)
			}
			if c.Len() > capacity {
				return false
			}
			if len(c.Keys()) != c.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache behaves identically to a reference model — including
// across entry reuse: a Set at capacity recycles the entry it evicts and a
// Set after a Delete takes the deleted entry off the free list, and in both
// cases onEvict must be handed the pair that left the cache, never the
// reused entry's new one.
func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const capacity = 8
	type pair struct{ k, v int }
	var evicted []pair
	c := NewWithEvict[int, int](capacity, func(k, v int) { evicted = append(evicted, pair{k, v}) })
	// Reference: slice ordered MRU->LRU plus a map.
	var order []int
	model := map[int]int{}
	touch := func(k int) {
		for i, v := range order {
			if v == k {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append([]int{k}, order...)
	}
	for step := 0; step < 5000; step++ {
		k := rng.Intn(16)
		switch rng.Intn(3) {
		case 0: // set
			v := rng.Int()
			var want []pair
			if _, ok := model[k]; ok {
				model[k] = v
				touch(k)
			} else {
				model[k] = v
				order = append([]int{k}, order...)
				if len(order) > capacity {
					victim := order[len(order)-1]
					order = order[:len(order)-1]
					want = []pair{{victim, model[victim]}}
					delete(model, victim)
				}
			}
			evicted = evicted[:0]
			if got := c.Set(k, v); got != (want != nil) || !slices.Equal(evicted, want) {
				t.Fatalf("step %d: Set(%d) = %v, onEvict saw %v; model evicts %v", step, k, got, evicted, want)
			}
		case 1: // get
			gv, gok := c.Get(k)
			mv, mok := model[k]
			if gok != mok || (gok && gv != mv) {
				t.Fatalf("step %d: Get(%d) = (%d,%v), model (%d,%v)", step, k, gv, gok, mv, mok)
			}
			if mok {
				touch(k)
			}
		case 2: // delete
			gok := c.Delete(k)
			_, mok := model[k]
			if gok != mok {
				t.Fatalf("step %d: Delete(%d) = %v, model %v", step, k, gok, mok)
			}
			if mok {
				delete(model, k)
				for i, v := range order {
					if v == k {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
			}
		}
		if c.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, c.Len(), len(model))
		}
	}
	// Final full-order comparison.
	got := c.Keys()
	if len(got) != len(order) {
		t.Fatalf("Keys len %d vs model %d", len(got), len(order))
	}
	for i := range got {
		if got[i] != order[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, got, order)
		}
	}
}

// A full cache — the steady state of a cache smaller than its working set —
// inserts a new key into the entry it evicts, and a Set after a Delete
// reuses the deleted entry: neither allocates.
func TestSetReusesEntries(t *testing.T) {
	c := New[int, string](64)
	for i := 0; i < 64; i++ {
		c.Set(i, "v")
	}
	next := 64
	if avg := testing.AllocsPerRun(1000, func() { c.Set(next, "v"); next++ }); avg != 0 {
		t.Errorf("Set of a new key at capacity: %v allocs, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { c.Delete(next - 1); c.Set(next, "v"); next++ }); avg != 0 {
		t.Errorf("Set after Delete: %v allocs, want 0", avg)
	}
	if st := c.Stats(); st.Len != 64 || st.Evictions != 1001 {
		t.Errorf("stats = %+v, want Len 64 and one eviction per at-capacity Set", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(256)
				switch rng.Intn(3) {
				case 0:
					c.Set(k, k)
				case 1:
					if v, ok := c.Get(k); ok && v != k {
						t.Errorf("Get(%d) = %d", k, v)
					}
				case 2:
					c.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}

func BenchmarkSetGet(b *testing.B) {
	for _, size := range []int{200, 1000, 5000} {
		b.Run(fmt.Sprintf("cap%d", size), func(b *testing.B) {
			c := New[int, string](size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % (size * 2)
				if _, ok := c.Get(k); !ok {
					c.Set(k, "value")
				}
			}
		})
	}
}
