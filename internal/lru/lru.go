// Package lru provides a fixed-capacity least-recently-used cache with
// hit/miss/eviction statistics.
//
// The scalable Lustre monitor keeps fid→path mappings in an LRU cache so
// that the expensive fid2path resolution runs only on misses (§IV-2
// Processing; Tables VI and VIII study the effect of the cache and its
// size). The implementation is an intrusive doubly linked list over a map,
// giving O(1) Get/Set/Delete.
package lru

// Core is the LRU. It has no lock of its own: its callers already serialize
// access — internal/cache keeps one per shard under the shard mutex, beside
// its singleflight registry, so a miss and the flight it starts share a
// critical section; the local pipeline's rename pairing owns one from a
// single stage goroutine.
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
