// Package cache provides the concurrent resolver cache: a sharded LRU
// with singleflight miss coalescing and TTL'd negative caching, composed
// from internal/lru single-shard building blocks.
//
// The paper's scalability story rests on making fid→path resolution cheap
// (§IV-2, Algorithm 1; Tables VI and VIII show fid2path dominating
// per-event cost and the LRU cache as the lever). A single global-mutex
// LRU caps that win at one core: every resolver worker serializes on the
// cache lock even when the entries they touch are unrelated. This package
// removes the wall three ways:
//
//   - Sharding: N independent shards selected by key hash, each an
//     lru.Core under the shard's own lock, so concurrent lookups of
//     different keys proceed in parallel. Stats aggregate across shards
//     into one snapshot.
//   - Singleflight: concurrent misses on the same key trigger exactly one
//     backend load; the other callers wait for that flight's result
//     instead of stampeding the slow fid2path tool.
//   - Negative caching: load errors the caller marks as expected (stale
//     FIDs of deleted files — the UNLNK/RENME storms of Algorithm 1) are
//     remembered for a TTL, so repeated records for a dead FID stop
//     re-invoking the tool just to watch it fail again.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/lru"
)

// Config configures a sharded cache. Capacity and Hash are required.
type Config[K comparable] struct {
	// Capacity is the total entry budget, split evenly across shards.
	Capacity int
	// Shards is the shard count (default DefaultShards, clamped so every
	// shard holds at least one entry).
	Shards int
	// Hash maps a key to the 64-bit value used for shard selection.
	Hash func(K) uint64
	// NegativeTTL is how long a negative (error) result is remembered;
	// 0 disables negative caching. Remembered negative entries are bounded
	// by Capacity as well.
	NegativeTTL time.Duration
	// Negative reports whether a load error should be negative-cached
	// (nil with NegativeTTL > 0 caches every error).
	Negative func(error) bool
}

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 16

// Stats is an aggregated snapshot across every shard. The embedded
// lru.Stats sums the positive shards (so HitRate works unchanged).
type Stats struct {
	lru.Stats
	// Shards is the shard count.
	Shards int
	// NegHits counts lookups answered by an unexpired negative entry —
	// backend invocations that did not happen.
	NegHits uint64
	// NegLen is the current number of remembered negative entries.
	NegLen int
	// Coalesced counts loads that piggybacked on another caller's
	// in-flight load of the same key — backend invocations that did not
	// happen.
	Coalesced uint64
	// Loads counts backend invocations made through GetOrLoad.
	Loads uint64
	// LoadErrors counts loads that returned an error.
	LoadErrors uint64
}

type negEntry struct {
	err     error
	expires time.Time
}

// flight is one load in progress. Flights are recycled: one is idle, and
// may be taken for another key, only when it is not loading and its last
// waiter has read the result — so a reused flight can never hand a waiter
// another key's value.
type flight[K comparable, V any] struct {
	key     K
	loading bool
	waiters int
	val     V // the result, set at landing if anyone waits for it
	err     error
}

// shard is one independent slice of the key space under one lock: a
// positive LRU, a bounded negative LRU and the singleflight registry. One
// lock means a miss and the flight it starts (or joins) are one critical
// section, and a finished load's insert and its landing another.
type shard[K comparable, V any] struct {
	mu  sync.Mutex
	pos *lru.Core[K, V]
	neg *lru.Core[K, negEntry] // nil when negative caching is off

	// flights holds every flight the shard ever needed at once — at most
	// one per concurrent caller, so a scan beats a map. landed wakes
	// waiters; it is per shard, and each waiter rechecks its own flight.
	flights []*flight[K, V]
	landed  sync.Cond
}

// Cache is a sharded LRU with singleflight loading and negative caching.
// All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	cfg    Config[K]
	shards []*shard[K, V]
	mask   uint64 // len(shards) is a power of two

	negHits    atomic.Uint64
	coalesced  atomic.Uint64
	loads      atomic.Uint64
	loadErrors atomic.Uint64

	now func() time.Time // test hook
}

// New builds a cache from cfg. It panics if Capacity is not positive or
// Hash is nil, mirroring lru.NewCore.
func New[K comparable, V any](cfg Config[K]) *Cache[K, V] {
	if cfg.Capacity <= 0 {
		panic("cache: Capacity must be positive")
	}
	if cfg.Hash == nil {
		panic("cache: Hash is required")
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > cfg.Capacity {
		shards = cfg.Capacity
	}
	// Round down to a power of two so shard selection is a mask, not a
	// modulo, on the hot path.
	for shards&(shards-1) != 0 {
		shards &= shards - 1
	}
	perShard := (cfg.Capacity + shards - 1) / shards
	c := &Cache[K, V]{cfg: cfg, mask: uint64(shards - 1), now: time.Now}
	for i := 0; i < shards; i++ {
		s := &shard[K, V]{pos: lru.NewCore[K, V](perShard)}
		s.landed.L = &s.mu
		if cfg.NegativeTTL > 0 {
			s.neg = lru.NewCore[K, negEntry](perShard)
		}
		c.shards = append(c.shards, s)
	}
	return c
}

func (c *Cache[K, V]) shard(key K) *shard[K, V] {
	return c.shards[c.cfg.Hash(key)&c.mask]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos.Get(key)
}

// Set caches key → val and forgets any negative entry for key (the key
// evidently resolves now).
func (c *Cache[K, V]) Set(key K, val V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.set(key, val)
}

func (s *shard[K, V]) set(key K, val V) {
	if s.neg != nil {
		s.neg.Delete(key)
	}
	s.pos.Set(key, val)
}

// Delete removes key from both the positive and negative sides, reporting
// whether a positive entry was present.
func (c *Cache[K, V]) Delete(key K) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.neg != nil {
		s.neg.Delete(key)
	}
	return s.pos.Delete(key)
}

// getNegative returns the remembered load error for key if one is present
// and unexpired. Expired entries are dropped on observation. Peek keeps
// negative probes out of the positive hit/miss statistics. Caller holds
// s.mu.
func (c *Cache[K, V]) getNegative(s *shard[K, V], key K) (error, bool) {
	if s.neg == nil {
		return nil, false
	}
	e, ok := s.neg.Peek(key)
	if !ok {
		return nil, false
	}
	if c.now().After(e.expires) {
		s.neg.Delete(key)
		return nil, false
	}
	c.negHits.Add(1)
	return e.err, true
}

// GetOrLoad returns the cached value for key, or loads it with load —
// coalescing concurrent loads of the same key into a single backend call.
// A load error that Config.Negative accepts is remembered for NegativeTTL
// and returned to subsequent callers without re-invoking load; a
// successful load is cached positively. The load callback runs on the
// first caller's goroutine without any cache lock held, and is not
// retained, so a caller's closure stays on its stack.
//
// A miss is one hash and two critical sections of its shard: probe and
// take a flight; insert the result and land the flight. Nothing is
// allocated once the shard has a flight to reuse.
func (c *Cache[K, V]) GetOrLoad(key K, load func() (V, error)) (V, error) {
	s := c.shard(key)
	s.mu.Lock()
	if v, ok := s.pos.Get(key); ok {
		s.mu.Unlock()
		return v, nil
	}
	if err, ok := c.getNegative(s, key); ok {
		s.mu.Unlock()
		var zero V
		return zero, err
	}
	var f *flight[K, V] // an idle flight to take, should this call be the loader
	for _, g := range s.flights {
		if g.loading && g.key == key {
			c.coalesced.Add(1)
			g.waiters++
			for g.loading {
				s.landed.Wait()
			}
			v, err := g.val, g.err
			g.waiters--
			s.mu.Unlock()
			return v, err
		}
		if !g.loading && g.waiters == 0 {
			f = g
		}
	}
	if f == nil {
		f = new(flight[K, V])
		s.flights = append(s.flights, f)
	}
	f.key, f.loading = key, true
	s.mu.Unlock()

	c.loads.Add(1)
	v, err := load()
	negative := err != nil && s.neg != nil && (c.cfg.Negative == nil || c.cfg.Negative(err))

	s.mu.Lock()
	if err == nil {
		s.set(key, v)
	} else {
		c.loadErrors.Add(1)
		if negative {
			s.neg.Set(key, negEntry{err: err, expires: c.now().Add(c.cfg.NegativeTTL)})
		}
	}
	f.loading = false
	if f.waiters > 0 {
		f.val, f.err = v, err
		s.landed.Broadcast()
	}
	s.mu.Unlock()
	return v, err
}

// Len returns the current number of positive entries across all shards.
func (c *Cache[K, V]) Len() int { return c.Stats().Len }

// Stats returns an aggregated snapshot.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{Shards: len(c.shards)}
	for _, s := range c.shards {
		s.mu.Lock()
		ps := s.pos.Stats()
		if s.neg != nil {
			st.NegLen += s.neg.Len()
		}
		s.mu.Unlock()
		st.Hits += ps.Hits
		st.Misses += ps.Misses
		st.Evictions += ps.Evictions
		st.Len += ps.Len
		st.Cap += ps.Cap
	}
	st.NegHits = c.negHits.Load()
	st.Coalesced = c.coalesced.Load()
	st.Loads = c.loads.Load()
	st.LoadErrors = c.loadErrors.Load()
	return st
}

// ResetStats zeroes every counter (shard hit/miss/eviction counters and
// the aggregate load counters); cached entries are kept.
func (c *Cache[K, V]) ResetStats() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.pos.ResetStats()
		s.mu.Unlock()
	}
	c.negHits.Store(0)
	c.coalesced.Store(0)
	c.loads.Store(0)
	c.loadErrors.Store(0)
}
