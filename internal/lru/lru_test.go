package lru

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// keys lists c's keys most- to least-recently used.
func keys[K comparable, V any](c *Core[K, V]) []K {
	out := make([]K, 0, c.Len())
	for e := c.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func has[K comparable, V any](c *Core[K, V], k K) bool {
	_, ok := c.Peek(k)
	return ok
}

func TestBasicSetGet(t *testing.T) {
	c := NewCore[string, int](2)
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
	c := NewCore[int, int](3)
	c.Set(1, 1)
	c.Set(2, 2)
	c.Set(3, 3)
	c.Get(1)    // 1 now MRU; LRU order: 2,3
	c.Set(4, 4) // evicts 2
	if has(c, 2) {
		t.Error("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if !has(c, k) {
			t.Errorf("%d should be present", k)
		}
	}
}

func TestUpdateExisting(t *testing.T) {
	c := NewCore[string, int](2)
	c.Set("a", 1)
	if _, _, evicted := c.Set("a", 10); evicted {
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
	c := NewCore[string, int](2)
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
	c = NewCore[string, int](4)
	for _, k := range []string{"w", "x", "y", "z"} {
		c.Set(k, 0)
	}
	c.Delete("z") // head (MRU)
	c.Delete("w") // tail (LRU)
	c.Delete("x") // middle
	if got := keys(c); len(got) != 1 || got[0] != "y" {
		t.Errorf("Keys = %v, want [y]", got)
	}
}

// On eviction Set hands back the pair that left.
func TestOnEvict(t *testing.T) {
	c := NewCore[string, int](2)
	c.Set("a", 1)
	if _, _, evicted := c.Set("b", 2); evicted {
		t.Error("Set below capacity reported an eviction")
	}
	if k, v, evicted := c.Set("c", 3); !evicted || k != "a" || v != 1 {
		t.Errorf("Set(c) evicted (%q, %d, %v), want (a, 1, true)", k, v, evicted)
	}
}

func TestStats(t *testing.T) {
	c := NewCore[int, int](2)
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
	c := NewCore[int, int](2)
	c.Set(1, 1)
	c.Set(2, 2)
	if v, ok := c.Peek(1); !ok || v != 1 {
		t.Fatalf("Peek = %d, %v", v, ok)
	}
	c.Set(3, 3) // should evict 1 despite the Peek
	if has(c, 1) {
		t.Error("Peek promoted entry")
	}
	if _, ok := c.Peek(99); ok {
		t.Error("Peek(99) present")
	}
}

func TestNewPanics(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCore(%d) did not panic", n)
				}
			}()
			NewCore[int, int](n)
		}()
	}
}

// Property: the cache never exceeds capacity, and a Get immediately after a
// Set observes the value.
func TestInvariantsQuick(t *testing.T) {
	f := func(ops []uint16, capSeed uint8) bool {
		capacity := int(capSeed)%20 + 1
		c := NewCore[uint8, uint16](capacity)
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
			if len(keys(c)) != c.Len() {
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
// cases Set must return the pair that left the cache, never the reused
// entry's new one.
func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const capacity = 8
	c := NewCore[int, int](capacity)
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
			var wantK, wantV int
			var wantEvicted bool
			if _, ok := model[k]; ok {
				model[k] = v
				touch(k)
			} else {
				model[k] = v
				order = append([]int{k}, order...)
				if len(order) > capacity {
					victim := order[len(order)-1]
					order = order[:len(order)-1]
					wantK, wantV, wantEvicted = victim, model[victim], true
					delete(model, victim)
				}
			}
			if gk, gv, got := c.Set(k, v); got != wantEvicted || gk != wantK || gv != wantV {
				t.Fatalf("step %d: Set(%d) evicted (%d, %d, %v), model (%d, %d, %v)",
					step, k, gk, gv, got, wantK, wantV, wantEvicted)
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
	got := keys(c)
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
	c := NewCore[int, string](64)
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

func BenchmarkSetGet(b *testing.B) {
	for _, size := range []int{200, 1000, 5000} {
		b.Run(fmt.Sprintf("cap%d", size), func(b *testing.B) {
			c := NewCore[int, string](size)
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
