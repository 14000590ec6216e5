package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func ident(k uint64) uint64 { return k }

// mix gives adversarially-clustered keys a spread, like lustre.FID.Hash.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	return k
}

func newTest(capacity, shards int, ttl time.Duration) *Cache[uint64] {
	return New[uint64](Config[uint64]{
		Capacity:    capacity,
		Shards:      shards,
		Hash:        mix,
		NegativeTTL: ttl,
	})
}

// get is Get into a fresh buffer, as a string.
func get(c *Cache[uint64], k uint64) (string, bool) {
	v, ok := c.Get(k, nil)
	return string(v), ok
}

// getOrLoad is GetOrLoad into a fresh buffer with a loader that returns a
// string.
func getOrLoad(c *Cache[uint64], k uint64, load func() (string, error)) (string, error) {
	v, err := c.GetOrLoad(k, nil, func(dst []byte) ([]byte, error) {
		s, err := load()
		return append(dst, s...), err
	})
	return string(v), err
}

func TestBasicSetGetDelete(t *testing.T) {
	c := newTest(128, 4, 0)
	c.Set(1, []byte("one"))
	if v, ok := get(c, 1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := get(c, 2); ok {
		t.Fatal("Get(2) unexpectedly present")
	}
	if !c.Delete(1) || c.Delete(1) {
		t.Fatal("Delete semantics wrong")
	}
	if n := c.Stats().Len; n != 0 {
		t.Fatalf("Len = %d", n)
	}
}

func TestShardCountNormalization(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, want int }{
		{100, 0, DefaultShards}, // default
		{100, 7, 4},             // round down to power of two
		{100, 16, 16},
		{3, 16, 2}, // no more shards than capacity
		{1, 16, 1},
	} {
		c := New[uint64](Config[uint64]{Capacity: tc.capacity, Shards: tc.shards, Hash: ident})
		if got := c.Stats().Shards; got != tc.want {
			t.Errorf("Capacity=%d Shards=%d: got %d shards, want %d", tc.capacity, tc.shards, got, tc.want)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for name, cfg := range map[string]Config[uint64]{
		"no capacity": {Hash: ident},
		"no hash":     {Capacity: 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			New[uint64](cfg)
		}()
	}
}

// Race-detector workout: concurrent Get/Set/Delete/GetOrLoad over a shared
// key space across every shard.
func TestConcurrentAccess(t *testing.T) {
	c := newTest(256, 8, 50*time.Millisecond)
	errStale := errors.New("stale")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(512))
				switch rng.Intn(4) {
				case 0:
					c.Set(k, fmt.Appendf(nil, "v%d", k))
				case 1:
					if v, ok := get(c, k); ok && v != fmt.Sprintf("v%d", k) {
						t.Errorf("Get(%d) = %q", k, v)
					}
				case 2:
					c.Delete(k)
				case 3:
					v, err := getOrLoad(c, k, func() (string, error) {
						if k%7 == 0 {
							return "", errStale
						}
						return fmt.Sprintf("v%d", k), nil
					})
					if err == nil && v != fmt.Sprintf("v%d", k) {
						t.Errorf("GetOrLoad(%d) = %q", k, v)
					}
					if err != nil && !errors.Is(err, errStale) {
						t.Errorf("GetOrLoad(%d) err = %v", k, err)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if st := c.Stats(); st.Len > 256 {
		t.Errorf("Len = %d exceeds capacity", st.Len)
	}
}

// Singleflight: K concurrent misses on one key collapse to exactly one
// backend call, and every caller observes that call's result.
func TestSingleflightCollapsesMisses(t *testing.T) {
	c := newTest(64, 4, 0)
	const callers = 32
	var backendCalls atomic.Int64
	var release sync.WaitGroup
	release.Add(1)
	var wg sync.WaitGroup
	results := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := getOrLoad(c, 42, func() (string, error) {
				backendCalls.Add(1)
				release.Wait() // hold the flight open until all callers queue up
				return "resolved", nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the straggler callers have had a chance to join the
	// flight, then let the single loader finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < callers-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	release.Done()
	wg.Wait()
	if n := backendCalls.Load(); n != 1 {
		t.Errorf("backend called %d times, want 1", n)
	}
	for i, r := range results {
		if r != "resolved" {
			t.Errorf("caller %d result = %q", i, r)
		}
	}
	if st := c.Stats(); st.Coalesced != callers-1 || st.Loads != 1 {
		t.Errorf("stats = %+v, want Coalesced=%d Loads=1", st, callers-1)
	}
}

// A load that fails — Algorithm 1's expected outcome for a dead FID, about
// every other record of a drained backlog — costs no allocation: the
// flight comes off the shard's free list and there is no channel to make.
func TestFailingLoadAllocatesNothing(t *testing.T) {
	c := newTest(64, 4, 0)
	errStale := errors.New("stale")
	load := func(dst []byte) ([]byte, error) { return dst, errStale }
	var k uint64
	if avg := testing.AllocsPerRun(1000, func() { k++; c.GetOrLoad(k, nil, load) }); avg != 0 {
		t.Errorf("GetOrLoad with a failing load: %v allocs, want 0", avg)
	}
}

// Flights are recycled, so the hazard is a waiter woken on — or left
// holding — a flight that has since been reused for another key, or reading
// the flight's buffer after a later landing refilled it. Many goroutines
// hammer few keys in a tiny cache (most calls miss, loads yield so callers
// pile onto flights): every caller must get exactly its own key's result
// appended to what its buffer already held — values differ in length, so a
// longer value left in a recycled buffer would show — and every call is
// exactly one of hit, load or coalesced wait.
func TestRecycledFlightsKeepTheirKeys(t *testing.T) {
	const goroutines, keys, rounds = 16, 24, 1500
	c := newTest(4, 2, 0)
	vals, errs := make([]string, keys), make([]error, keys)
	for k := range vals {
		vals[k] = fmt.Sprintf("v%d%s", k, strings.Repeat("/x", k%5))
		if k%3 != 0 {
			errs[k] = fmt.Errorf("stale %d", k) // two keys in three never resolve
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 0, 64)
			for i := 0; i < rounds; i++ {
				k := rng.Intn(keys)
				v, err := c.GetOrLoad(uint64(k), append(buf[:0], "dst:"...), func(dst []byte) ([]byte, error) {
					runtime.Gosched()
					if errs[k] != nil {
						return append(dst, "partial"...), errs[k]
					}
					return append(dst, vals[k]...), nil
				})
				want := "dst:"
				if errs[k] == nil {
					want += vals[k]
				}
				if string(v) != want || err != errs[k] {
					t.Errorf("GetOrLoad(%d) = %q, %v; want %q, %v", k, v, err, want, errs[k])
					return
				}
				buf = v
			}
		}(int64(g))
	}
	wg.Wait()
	st := c.Stats()
	if got := st.Hits + st.Loads + st.Coalesced; got != goroutines*rounds {
		t.Errorf("Hits %d + Loads %d + Coalesced %d = %d, want %d calls", st.Hits, st.Loads, st.Coalesced, got, goroutines*rounds)
	}
	if st.Coalesced == 0 {
		t.Error("no call ever joined a flight: the test did not exercise waiters")
	}
}

// The cache owns its bytes: Set and a load are copied in, a read is copied
// out, so neither the caller's later writes to its buffers nor another key
// reusing an evicted or deleted entry's buffer changes what anyone reads.
func TestValuesAreCopies(t *testing.T) {
	c := newTest(1, 1, 0)
	in := []byte("/a/long/path")
	c.Set(1, in)
	copy(in, "XXXXXXXXXXXX")
	out, _ := c.Get(1, nil)
	copy(out, "YYYYYYYYYYYY")
	if v, _ := get(c, 1); v != "/a/long/path" {
		t.Fatalf("Get(1) = %q after the caller wrote to its buffers", v)
	}
	c.Set(2, []byte("/b")) // evicts 1: its entry's buffer now holds key 2
	if v, ok := get(c, 2); !ok || v != "/b" {
		t.Fatalf("Get(2) = %q, %v", v, ok)
	}
	c.Delete(2)
	loaded, err := c.GetOrLoad(3, []byte("dst:"), func(dst []byte) ([]byte, error) { return append(dst, "/c/d"...), nil })
	copy(loaded[4:], "ZZZZ")
	if err != nil || string(loaded) != "dst:ZZZZ" {
		t.Fatalf("GetOrLoad(3) = %q, %v", loaded, err)
	}
	if v, _ := get(c, 3); v != "/c/d" {
		t.Fatalf("Get(3) = %q: the cache kept the loader's buffer, not a copy", v)
	}
}

// A full cache — the resolver's steady state — recycles the buffers of the
// entries it evicts and deletes, and a read into a buffer with room copies
// out without allocating.
func TestFullCacheAllocatesNothing(t *testing.T) {
	c := newTest(64, 4, 0)
	val := []byte("/d0123/c45678")
	var k uint64
	for ; k < 256; k++ {
		c.Set(k, val)
	}
	buf := make([]byte, 0, 64)
	if avg := testing.AllocsPerRun(1000, func() {
		k++
		c.Set(k, val)
		c.Delete(k - 1)
		buf, _ = c.Get(k, buf[:0])
		buf, _ = c.GetOrLoad(k+1, buf[:0], func(dst []byte) ([]byte, error) { return append(dst, val...), nil })
	}); avg != 0 {
		t.Errorf("Set, Delete, Get and a loading GetOrLoad on a full cache: %v allocs, want 0", avg)
	}
}

// fillPaths is n resolver-like paths of mixed length.
func fillPaths(n int) [][]byte {
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = fmt.Appendf(nil, "/proj%03d/run%d/%s/out%06d.dat", i%97, i%13, strings.Repeat("d", i%23), i)
	}
	return vals
}

// Filling an empty cache costs per shard a handful of slab and arena
// doublings, not a heap object per entry and per value: 5 000 Sets into an
// empty 16-shard cache stay within 200 allocations (an entry and a buffer
// per key made that ≈ 10 000).
func TestFillAllocates(t *testing.T) {
	const capacity = 5000
	vals := fillPaths(capacity)
	caches := make([]*Cache[uint64], 4) // AllocsPerRun's warm-up call fills one too
	for i := range caches {
		caches[i] = newTest(capacity, 16, 0)
	}
	next := 0
	avg := testing.AllocsPerRun(len(caches)-1, func() {
		for k, v := range vals {
			caches[next].Set(uint64(k), v)
		}
		next++
	})
	if avg > 200 {
		t.Errorf("%d Sets into an empty cache: %v allocs, want ≤ 200", capacity, avg)
	}
	if st := caches[0].Stats(); st.Len < capacity*9/10 {
		t.Errorf("Len = %d after %d Sets: the fill evicted most of itself", st.Len, capacity)
	}
}

// The arena keeps the bound the shard documents while values grow and
// shrink across entries that are evicted, deleted and recycled: under 4 ×
// capacity × the longest value's slot at every step, and under twice the
// live slots once every entry is live again. Every read is still its key's
// last value.
func TestArenaStaysBounded(t *testing.T) {
	const capacity, keys = 64, 200
	c := newTest(capacity, 4, 0)
	rng := rand.New(rand.NewSource(7))
	last := map[uint64]string{}
	longest := 0
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(keys))
		switch r := rng.Intn(10); {
		case r == 0:
			c.Delete(k)
			delete(last, k)
		case r < 4:
			if v, ok := get(c, k); ok && v != last[k] {
				t.Fatalf("step %d: Get(%d) = %q, want %q", i, k, v, last[k])
			}
		default:
			n := 1 + rng.Intn(40) // mostly short, now and then long
			if rng.Intn(20) == 0 {
				n = 1 + rng.Intn(700)
			}
			v := strings.Repeat(string(rune('a'+k%26)), n)
			c.Set(k, []byte(v))
			last[k] = v
			longest = max(longest, n)
		}
		bound := 4 * (capacity / 4) * (1 << bits.Len(uint(longest-1)))
		for j, s := range c.shards {
			if len(s.arena) > bound {
				t.Fatalf("step %d: shard %d arena is %d bytes, bound %d", i, j, len(s.arena), bound)
			}
		}
	}
	// Every entry live again: fresh keys evict until each shard is full,
	// so no slot waits on a free list.
	for k := uint64(keys); k < 2*keys; k++ {
		c.Set(k, []byte("/x"))
	}
	grown := false
	for j, s := range c.shards {
		if s.pos.Len() != s.pos.Stats().Cap {
			t.Fatalf("shard %d holds %d of %d", j, s.pos.Len(), s.pos.Stats().Cap)
		}
		live := 0
		for k := uint64(0); k < 2*keys; k++ {
			if v, ok := s.pos.Peek(k); ok {
				live += int(v.cap)
			}
		}
		if len(s.arena) > 2*live {
			t.Errorf("shard %d: arena %d bytes, live slots %d: dead bytes exceed live ones", j, len(s.arena), live)
		}
		grown = grown || len(s.arena) > live
	}
	if !grown {
		t.Error("no slot was ever outgrown: the test did not exercise dead bytes")
	}
}

// Readers copy out while other goroutines Set, evict and Delete in the same
// shard, so entry buffers are handed from key to key under the readers'
// feet: every read must be exactly its key's value. Values differ in length
// and content per key, and writers scribble over their own buffer after
// each Set. Under -race (make soak) it also shows that no cache memory is
// read outside the shard lock.
func TestReadersNeverSeeAnotherKeysBytes(t *testing.T) {
	const keys, rounds = 48, 3000
	c := newTest(8, 1, 0) // one shard: every key shares its lock and its buffers
	val := func(k int) string { return fmt.Sprintf("/k%d%s", k, strings.Repeat("/abc", k%7)) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 0, 64)
			for i := 0; i < rounds; i++ {
				k := rng.Intn(keys)
				switch {
				case g%2 == 0 && i%3 == 0:
					buf = append(buf[:0], val(k)...)
					c.Set(uint64(k), buf)
					copy(buf, "################")
				case g%2 == 0 && i%3 == 1:
					c.Delete(uint64(k))
				case i%2 == 0:
					var ok bool
					if buf, ok = c.Get(uint64(k), buf[:0]); ok && string(buf) != val(k) {
						t.Errorf("Get(%d) = %q, want %q", k, buf, val(k))
						return
					}
				default:
					var err error
					buf, err = c.GetOrLoad(uint64(k), buf[:0], func(dst []byte) ([]byte, error) { return append(dst, val(k)...), nil })
					if err != nil || string(buf) != val(k) {
						t.Errorf("GetOrLoad(%d) = %q, %v, want %q", k, buf, err, val(k))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNegativeCacheTTL(t *testing.T) {
	c := newTest(64, 4, time.Hour)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	errStale := errors.New("stale fid")
	var backendCalls int
	load := func() (string, error) {
		backendCalls++
		return "", errStale
	}
	// First call invokes the backend and remembers the failure.
	if _, err := getOrLoad(c, 7, load); !errors.Is(err, errStale) {
		t.Fatalf("err = %v", err)
	}
	// Within the TTL the error is served from the negative cache.
	for i := 0; i < 10; i++ {
		if _, err := getOrLoad(c, 7, load); !errors.Is(err, errStale) {
			t.Fatalf("negative hit err = %v", err)
		}
	}
	if backendCalls != 1 {
		t.Fatalf("backend called %d times within TTL, want 1", backendCalls)
	}
	if st := c.Stats(); st.NegHits != 10 || st.NegLen != 1 {
		t.Errorf("stats = %+v, want NegHits=10 NegLen=1", st)
	}
	// After expiry the backend is consulted again.
	now = now.Add(time.Hour + time.Second)
	if _, err := getOrLoad(c, 7, load); !errors.Is(err, errStale) {
		t.Fatalf("post-expiry err = %v", err)
	}
	if backendCalls != 2 {
		t.Fatalf("backend called %d times after expiry, want 2", backendCalls)
	}
}

// Set and a successful load both clear the negative entry: a key that
// starts resolving again must not keep reporting the stale error.
func TestNegativeEntryClearedOnSet(t *testing.T) {
	c := newTest(64, 4, time.Hour)
	errStale := errors.New("stale fid")
	if _, err := getOrLoad(c, 7, func() (string, error) { return "", errStale }); !errors.Is(err, errStale) {
		t.Fatalf("err = %v", err)
	}
	c.Set(7, []byte("reborn"))
	v, err := getOrLoad(c, 7, func() (string, error) {
		t.Error("backend consulted despite positive entry")
		return "", nil
	})
	if err != nil || v != "reborn" {
		t.Fatalf("GetOrLoad = %q, %v", v, err)
	}
	if st := c.Stats(); st.NegLen != 0 {
		t.Errorf("NegLen = %d after Set", st.NegLen)
	}
}

// Only errors accepted by Config.Negative are remembered.
func TestNegativePredicate(t *testing.T) {
	errStale := errors.New("stale")
	errIO := errors.New("io")
	c := New[uint64](Config[uint64]{
		Capacity:    64,
		Shards:      4,
		Hash:        ident,
		NegativeTTL: time.Hour,
		Negative:    func(err error) bool { return errors.Is(err, errStale) },
	})
	calls := 0
	for i := 0; i < 3; i++ {
		getOrLoad(c, 1, func() (string, error) { calls++; return "", errIO })
	}
	if calls != 3 {
		t.Errorf("transient error cached: %d backend calls, want 3", calls)
	}
	calls = 0
	for i := 0; i < 3; i++ {
		getOrLoad(c, 2, func() (string, error) { calls++; return "", errStale })
	}
	if calls != 1 {
		t.Errorf("stale error not cached: %d backend calls, want 1", calls)
	}
}

func TestStatsAggregateAcrossShards(t *testing.T) {
	// Identity hash + sequential keys spread perfectly round-robin, so no
	// shard overflows its slice of the capacity.
	c := New[uint64](Config[uint64]{Capacity: 64, Shards: 8, Hash: ident})
	for i := uint64(0); i < 64; i++ {
		c.Set(i, []byte("v"))
	}
	for i := uint64(0); i < 64; i++ {
		c.Get(i, nil)
	}
	c.Get(999, nil)
	st := c.Stats()
	if st.Len != 64 || st.Cap < 64 {
		t.Errorf("Len/Cap = %d/%d", st.Len, st.Cap)
	}
	if st.Hits != 64 || st.Misses != 1 {
		t.Errorf("Hits/Misses = %d/%d", st.Hits, st.Misses)
	}
	if hr := st.HitRate(); hr <= 0.9 {
		t.Errorf("HitRate = %f", hr)
	}
}

func BenchmarkGetOrLoadParallel(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			c := New[uint64](Config[uint64]{Capacity: 8192, Shards: shards, Hash: mix})
			for i := uint64(0); i < 8192; i++ {
				c.Set(i, []byte("v"))
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				buf := make([]byte, 0, 64)
				for pb.Next() {
					k := uint64(rng.Intn(8192))
					buf, _ = c.GetOrLoad(k, buf[:0], func(dst []byte) ([]byte, error) { return append(dst, 'v'), nil })
				}
			})
		})
	}
}

// BenchmarkCacheFill fills an empty 5 000-entry, 16-shard cache: allocs/op
// is TestFillAllocates' figure (bench-smoke); building the cache is not
// counted.
func BenchmarkCacheFill(b *testing.B) {
	vals := fillPaths(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newTest(len(vals), 16, 0)
		b.StartTimer()
		for k, v := range vals {
			c.Set(uint64(k), v)
		}
	}
}
