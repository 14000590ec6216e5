// Package lru provides a fixed-capacity least-recently-used cache with
// hit/miss/eviction statistics.
//
// The scalable Lustre monitor keeps fid→path mappings in an LRU cache so
// that the expensive fid2path resolution runs only on misses (§IV-2
// Processing; Tables VI and VIII study the effect of the cache and its
// size). The implementation is a slab: the entries live in one slice,
// linked into recency order by int32 index and found by one linear probe
// of an open-addressed index over a hash the caller supplies, so no entry
// is a heap object of its own. Get, Set, Slot and Delete are O(1).
package lru

import "math/bits"

// none is the nil of the int32 links.
const none = -1

// Core is the LRU. It has no lock of its own: its callers already serialize
// access — internal/cache keeps one per shard under the shard mutex, beside
// its singleflight registry, so a miss and the flight it starts share a
// critical section; the local pipeline's rename pairing owns one from a
// single stage goroutine.
type Core[K comparable, V any] struct {
	cap  int
	hash func(K) uint64
	// ents is the slab. It doubles up to cap, and an entry keeps its index
	// for life. head is most recently used, tail least recently used.
	ents       []entry[K, V]
	head, tail int32
	// free chains, through next, the entries Delete unlinked. Set takes from
	// it, and at capacity reuses the entry it evicts, so a full cache —
	// the steady state — inserts without allocating.
	free int32
	// index holds an entry's index + 1 per slot, 0 when empty. Its length
	// is a power of two ≥ 2 × cap, and a key probes linearly from the slot
	// its hash's high 32 bits pick (hi >> shift): a sharded caller picks
	// shards by the low bits, which one Core's keys therefore share.
	index []int32
	shift uint8
	n     int

	hits, misses, evictions uint64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	hi         uint32 // the key's hash >> 32
	prev, next int32
}

// NewCore returns an unsynchronized LRU holding at most capacity entries
// (at most 1<<30), found by hash, which must spread keys over its high bits.
func NewCore[K comparable, V any](capacity int, hash func(K) uint64) *Core[K, V] {
	if capacity <= 0 || capacity > 1<<30 || hash == nil {
		panic("lru: capacity must be in [1, 1<<30] and hash non-nil")
	}
	b := bits.Len(uint(2*capacity - 1)) // 1<<b ≥ 2 × capacity
	return &Core[K, V]{cap: capacity, hash: hash, head: none, tail: none, free: none,
		index: make([]int32, 1<<b), shift: uint8(32 - b)}
}

// find returns key's hash bits, its index slot (if absent, the empty one
// that ends its probe) and its entry (none if absent).
func (c *Core[K, V]) find(key K) (hi, slot uint32, i int32) {
	hi = uint32(c.hash(key) >> 32)
	m := uint32(len(c.index) - 1)
	for slot = hi >> c.shift; c.index[slot] != 0; slot = (slot + 1) & m {
		if e := &c.ents[c.index[slot]-1]; e.hi == hi && e.key == key {
			return hi, slot, c.index[slot] - 1
		}
	}
	return hi, slot, none
}

// Get returns the value for key and marks it most recently used.
func (c *Core[K, V]) Get(key K) (V, bool) {
	_, _, i := c.find(key)
	if i == none {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(i)
	return c.ents[i].val, true
}

// Peek returns the value for key without updating recency or statistics.
func (c *Core[K, V]) Peek(key K) (V, bool) {
	if _, _, i := c.find(key); i != none {
		return c.ents[i].val, true
	}
	var zero V
	return zero, false
}

// Set inserts or updates key, marking it most recently used. Inserting into
// a full cache evicts the least recently used entry and returns its pair;
// the entry itself is reused for the new one.
func (c *Core[K, V]) Set(key K, val V) (oldKey K, oldVal V, evicted bool) {
	_, _, i := c.find(key)
	if i != none {
		c.moveToFront(i)
	} else if i, oldKey, evicted = c.insert(key); evicted {
		oldVal = c.ents[i].val
	}
	c.ents[i].val = val
	return oldKey, oldVal, evicted
}

// Slot is Set for a caller that fills the value in place: it returns key's
// value slot, inserting key as most recently used if it is absent. A new
// key's slot still holds the value of the entry it recycled — the one an
// eviction or a Delete let go of — so a cache of buffers refills them
// instead of allocating. The pointer is valid until the next insert.
func (c *Core[K, V]) Slot(key K) *V {
	_, _, i := c.find(key)
	if i != none {
		c.moveToFront(i)
	} else {
		i, _, _ = c.insert(key)
	}
	return &c.ents[i].val
}

// insert links absent key as most recently used in an entry whose value it
// leaves as it was: the entry it evicts at capacity, else a deleted one,
// else a new one at the slab's end.
func (c *Core[K, V]) insert(key K) (i int32, oldKey K, evicted bool) {
	switch {
	case c.n >= c.cap:
		i, oldKey, evicted = c.tail, c.ents[c.tail].key, true
		c.remove(i)
		c.evictions++
	case c.free != none:
		i, c.free = c.free, c.ents[c.free].next
	default:
		if n := len(c.ents); n == cap(c.ents) {
			c.ents = append(make([]entry[K, V], 0, min(max(2*n, 64), c.cap)), c.ents...)
		}
		i = int32(len(c.ents))
		c.ents = c.ents[:i+1]
	}
	hi, slot, _ := c.find(key) // after the eviction, whose backward shift may move entries
	c.ents[i].key, c.ents[i].hi = key, hi
	c.index[slot] = i + 1
	c.n++
	c.pushFront(i)
	return i, oldKey, evicted
}

// Delete removes key, reporting whether it was present. The entry keeps its
// value on the free list for Slot to reuse (Set overwrites it).
func (c *Core[K, V]) Delete(key K) bool {
	_, _, i := c.find(key)
	if i == none {
		return false
	}
	c.remove(i)
	var zero K
	c.ents[i].key, c.ents[i].next = zero, c.free
	c.free = i
	return true
}

// remove unindexes and unlinks entry i. The index slot is emptied by
// backward shift: each later entry of the probe run moves back into the
// hole unless its home slot lies after the hole, so no tombstone is left.
func (c *Core[K, V]) remove(i int32) {
	_, hole, _ := c.find(c.ents[i].key)
	m := uint32(len(c.index) - 1)
	for j := (hole + 1) & m; c.index[j] != 0; j = (j + 1) & m {
		if home := c.ents[c.index[j]-1].hi >> c.shift; (j-home)&m >= (j-hole)&m {
			c.index[hole], hole = c.index[j], j
		}
	}
	c.index[hole] = 0
	c.unlink(i)
	c.n--
}

// Len returns the current number of entries.
func (c *Core[K, V]) Len() int { return c.n }

// Stats returns a snapshot of the counters.
func (c *Core[K, V]) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.n, Cap: c.cap}
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

func (c *Core[K, V]) pushFront(i int32) {
	c.ents[i].prev, c.ents[i].next = none, c.head
	if c.head != none {
		c.ents[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *Core[K, V]) unlink(i int32) {
	e := &c.ents[i]
	if e.prev != none {
		c.ents[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Core[K, V]) moveToFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}
