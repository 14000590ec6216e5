package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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

func newTest(capacity, shards int, ttl time.Duration) *Cache[uint64, string] {
	return New[uint64, string](Config[uint64]{
		Capacity:    capacity,
		Shards:      shards,
		Hash:        mix,
		NegativeTTL: ttl,
	})
}

func TestBasicSetGetDelete(t *testing.T) {
	c := newTest(128, 4, 0)
	c.Set(1, "one")
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("Get(2) unexpectedly present")
	}
	if !c.Delete(1) || c.Delete(1) {
		t.Fatal("Delete semantics wrong")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
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
		c := New[uint64, string](Config[uint64]{Capacity: tc.capacity, Shards: tc.shards, Hash: ident})
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
			New[uint64, string](cfg)
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
					c.Set(k, fmt.Sprintf("v%d", k))
				case 1:
					if v, ok := c.Get(k); ok && v != fmt.Sprintf("v%d", k) {
						t.Errorf("Get(%d) = %q", k, v)
					}
				case 2:
					c.Delete(k)
				case 3:
					v, err := c.GetOrLoad(k, func() (string, error) {
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
			v, err := c.GetOrLoad(42, func() (string, error) {
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
	load := func() (string, error) { return "", errStale }
	var k uint64
	if avg := testing.AllocsPerRun(1000, func() { k++; c.GetOrLoad(k, load) }); avg != 0 {
		t.Errorf("GetOrLoad with a failing load: %v allocs, want 0", avg)
	}
}

// Flights are recycled, so the hazard is a waiter woken on — or left
// holding — a flight that has since been reused for another key. Many
// goroutines hammer few keys in a tiny cache (most calls miss, loads yield
// so callers pile onto flights): every caller must get its own key's
// result, and every call is exactly one of hit, load or coalesced wait.
func TestRecycledFlightsKeepTheirKeys(t *testing.T) {
	const goroutines, keys, rounds = 16, 24, 1500
	c := newTest(4, 2, 0)
	vals, errs := make([]string, keys), make([]error, keys)
	for k := range vals {
		vals[k] = fmt.Sprintf("v%d", k)
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
			for i := 0; i < rounds; i++ {
				k := rng.Intn(keys)
				v, err := c.GetOrLoad(uint64(k), func() (string, error) {
					runtime.Gosched()
					return vals[k], errs[k]
				})
				if v != vals[k] || err != errs[k] {
					t.Errorf("GetOrLoad(%d) = %q, %v; want %q, %v", k, v, err, vals[k], errs[k])
					return
				}
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
	if _, err := c.GetOrLoad(7, load); !errors.Is(err, errStale) {
		t.Fatalf("err = %v", err)
	}
	// Within the TTL the error is served from the negative cache.
	for i := 0; i < 10; i++ {
		if _, err := c.GetOrLoad(7, load); !errors.Is(err, errStale) {
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
	if _, err := c.GetOrLoad(7, load); !errors.Is(err, errStale) {
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
	if _, err := c.GetOrLoad(7, func() (string, error) { return "", errStale }); !errors.Is(err, errStale) {
		t.Fatalf("err = %v", err)
	}
	c.Set(7, "reborn")
	v, err := c.GetOrLoad(7, func() (string, error) {
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
	c := New[uint64, string](Config[uint64]{
		Capacity:    64,
		Shards:      4,
		Hash:        ident,
		NegativeTTL: time.Hour,
		Negative:    func(err error) bool { return errors.Is(err, errStale) },
	})
	calls := 0
	for i := 0; i < 3; i++ {
		c.GetOrLoad(1, func() (string, error) { calls++; return "", errIO })
	}
	if calls != 3 {
		t.Errorf("transient error cached: %d backend calls, want 3", calls)
	}
	calls = 0
	for i := 0; i < 3; i++ {
		c.GetOrLoad(2, func() (string, error) { calls++; return "", errStale })
	}
	if calls != 1 {
		t.Errorf("stale error not cached: %d backend calls, want 1", calls)
	}
}

func TestStatsAggregateAcrossShards(t *testing.T) {
	// Identity hash + sequential keys spread perfectly round-robin, so no
	// shard overflows its slice of the capacity.
	c := New[uint64, string](Config[uint64]{Capacity: 64, Shards: 8, Hash: ident})
	for i := uint64(0); i < 64; i++ {
		c.Set(i, "v")
	}
	for i := uint64(0); i < 64; i++ {
		c.Get(i)
	}
	c.Get(999)
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
	c.ResetStats()
	if st := c.Stats(); st.Hits+st.Misses+st.Loads != 0 {
		t.Errorf("after reset: %+v", st)
	}
}

func BenchmarkGetOrLoadParallel(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			c := New[uint64, string](Config[uint64]{Capacity: 8192, Shards: shards, Hash: mix})
			for i := uint64(0); i < 8192; i++ {
				c.Set(i, "v")
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					k := uint64(rng.Intn(8192))
					c.GetOrLoad(k, func() (string, error) { return "v", nil })
				}
			})
		})
	}
}
