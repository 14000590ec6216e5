// Package lru provides a goroutine-safe, fixed-capacity least-recently-used
// cache with hit/miss/eviction statistics.
//
// The scalable Lustre monitor keeps fid→path mappings in an LRU cache so
// that the expensive fid2path resolution runs only on misses (§IV-2
// Processing; Tables VI and VIII study the effect of the cache and its
// size). The implementation is an intrusive doubly linked list over a map,
// giving O(1) Get/Set/Delete.
package lru

import (
	"sync"
)

// Core is the LRU with no lock of its own: callers that already serialize
// access hold it directly — internal/cache keeps one per shard under the
// shard mutex, beside its singleflight registry, so a miss and the flight it
// starts share a critical section. Cache is a Core behind a mutex.
type Core[K comparable, V any] struct {
	cap   int
	items map[K]*entry[K, V]
	// head is most recently used; tail least recently used.
	head, tail *entry[K, V]
	// free chains, through next, the entries Delete unlinked. Set takes from
	// it, and at capacity reuses the entry it evicts, so a full cache —
	// the steady state — inserts without allocating.
	free *entry[K, V]

	hits, misses, evictions uint64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// NewCore returns an unsynchronized LRU holding at most capacity entries.
// Capacity must be positive.
func NewCore[K comparable, V any](capacity int) *Core[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	return &Core[K, V]{cap: capacity, items: make(map[K]*entry[K, V], capacity)}
}

// Cache is a fixed-capacity LRU cache mapping K to V, safe for concurrent
// use. The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu   sync.Mutex
	core *Core[K, V]

	// onEvict, if set, is invoked for each evicted entry. It runs after
	// the cache lock has been released, so it may call back into the
	// cache; by then the entry is already gone.
	onEvict func(K, V)
}

// New returns a cache holding at most capacity entries. Capacity must be
// positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{core: NewCore[K, V](capacity)}
}

// NewWithEvict is New with an eviction callback. Evicted entries are
// collected under the lock and the callback is invoked after the lock is
// released, so it may safely re-enter the cache.
func NewWithEvict[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	c := New[K, V](capacity)
	c.onEvict = onEvict
	return c
}

// Get returns the value for key and marks it most recently used.
func (c *Core[K, V]) Get(key K) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(e)
	return e.val, true
}

// Peek returns the value for key without updating recency or statistics.
func (c *Core[K, V]) Peek(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Set inserts or updates key, marking it most recently used. Inserting into
// a full cache evicts the least recently used entry and returns its pair;
// the entry itself is reused for the new one.
func (c *Core[K, V]) Set(key K, val V) (oldKey K, oldVal V, evicted bool) {
	if e, ok := c.items[key]; ok {
		e.val = val
		c.moveToFront(e)
		return oldKey, oldVal, false
	}
	var e *entry[K, V]
	switch {
	case len(c.items) >= c.cap:
		e = c.evictTail()
		oldKey, oldVal, evicted = e.key, e.val, true
	case c.free != nil:
		e, c.free = c.free, c.free.next
	default:
		e = new(entry[K, V])
	}
	e.key, e.val = key, val
	c.items[key] = e
	c.pushFront(e)
	return oldKey, oldVal, evicted
}

// Delete removes key, reporting whether it was present.
func (c *Core[K, V]) Delete(key K) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	c.unlink(e)
	delete(c.items, key)
	*e = entry[K, V]{next: c.free} // drop the pair so the free list pins nothing
	c.free = e
	return true
}

// Len returns the current number of entries.
func (c *Core[K, V]) Len() int { return len(c.items) }

// Stats returns a snapshot of the counters.
func (c *Core[K, V]) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: len(c.items), Cap: c.cap}
}

// ResetStats zeroes the hit/miss/eviction counters.
func (c *Core[K, V]) ResetStats() { c.hits, c.misses, c.evictions = 0, 0, 0 }

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Get(key)
}

// Peek returns the value for key without updating recency or statistics.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Peek(key)
}

// Contains reports whether key is cached, without updating recency.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.Peek(key)
	return ok
}

// Set inserts or updates key, marking it most recently used, evicting the
// least recently used entry if the cache is full. It reports whether an
// eviction occurred.
func (c *Cache[K, V]) Set(key K, val V) (evicted bool) {
	c.mu.Lock()
	oldKey, oldVal, evicted := c.core.Set(key, val)
	c.mu.Unlock()
	if evicted && c.onEvict != nil {
		c.onEvict(oldKey, oldVal)
	}
	return evicted
}

// Delete removes key, reporting whether it was present.
func (c *Cache[K, V]) Delete(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Delete(key)
}

// Len returns the current number of entries.
func (c *Cache[K, V]) Len() int { return c.Stats().Len }

// Cap returns the cache capacity.
func (c *Cache[K, V]) Cap() int { return c.core.cap }

// Purge removes every entry without invoking the eviction callback.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.core
	l.items = make(map[K]*entry[K, V], l.cap)
	l.head, l.tail = nil, nil
}

// Resize changes the capacity, evicting LRU entries as needed.
func (c *Cache[K, V]) Resize(capacity int) {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	c.mu.Lock()
	l := c.core
	l.cap = capacity
	var victims []*entry[K, V]
	for len(l.items) > l.cap {
		victims = append(victims, l.evictTail())
	}
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, v := range victims {
			c.onEvict(v.key, v.val)
		}
	}
}

// Keys returns all keys ordered most- to least-recently used.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, len(c.core.items))
	for e := c.core.head; e != nil; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits, Misses, Evictions uint64
	Len, Cap                int
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Stats()
}

// ResetStats zeroes the hit/miss/eviction counters.
func (c *Cache[K, V]) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.core.ResetStats()
}

func (c *Core[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Core[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Core[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// evictTail unlinks and returns the LRU entry of a non-empty cache.
func (c *Core[K, V]) evictTail() *entry[K, V] {
	t := c.tail
	c.unlink(t)
	delete(c.items, t.key)
	c.evictions++
	return t
}
