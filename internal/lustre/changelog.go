package lustre

import (
	"fmt"
	"sync"
)

// Changelog is one MDT's metadata change journal. Records are appended with
// monotonically increasing indices; registered readers consume records and
// periodically clear what they have processed ("After processing a batch of
// file system events from the Changelog, a collector will purge the
// Changelogs", §IV-2). Records are retained until every registered reader
// has cleared past them.
type Changelog struct {
	mu         sync.Mutex
	mdt        int
	records    []Record          // records[i].Index == first + uint64(i)
	first      uint64            // index of records[0]
	next       uint64            // index the next appended record receives
	readers    map[string]uint64 // reader id -> highest cleared index
	nextReader int
	appended   uint64
	cleared    uint64
}

// newChangelog creates the journal for MDT index mdt. Indices start at 1.
func newChangelog(mdt int) *Changelog {
	return &Changelog{mdt: mdt, first: 1, next: 1, readers: make(map[string]uint64)}
}

// MDT returns the index of the MDT this journal belongs to.
func (c *Changelog) MDT() int { return c.mdt }

// append adds a record, assigning its index.
func (c *Changelog) append(r Record) Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Index = c.next
	r.MDT = c.mdt
	c.next++
	c.appended++
	c.records = append(c.records, r)
	return r
}

// Register creates a changelog reader (cf. `lctl changelog_register`,
// which returns an id like "cl1"). Readers gate record retention: Clear
// only discards records once every reader has consumed them.
func (c *Changelog) Register() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextReader++
	id := fmt.Sprintf("cl%d", c.nextReader)
	c.readers[id] = c.first - 1
	return id
}

// Deregister removes a reader, releasing its retention hold.
func (c *Changelog) Deregister(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.readers[id]; !ok {
		return fmt.Errorf("lustre: changelog_deregister: unknown reader %q", id)
	}
	delete(c.readers, id)
	c.compactLocked()
	return nil
}

// Read returns up to max records with Index > since, in index order.
// max <= 0 means no limit.
//
// The result is a read-only view of the journal's own array, not a copy:
// records are immutable once appended, an append writes only past every
// view's end (the view's capacity is clipped to its length, so appending to
// one reallocates) and Clear only moves the journal's start. A view stays
// valid for as long as the caller holds it, across any later append, Clear
// or Deregister, and pins the array behind it until dropped.
func (c *Changelog) Read(since uint64, max int) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := 0
	if since >= c.first {
		start = int(since - c.first + 1)
	}
	if start >= len(c.records) {
		return nil
	}
	out := c.records[start:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out[:len(out):len(out)]
}

// Clear marks records up to and including index upTo as consumed by reader
// id, and discards records that every reader has consumed (cf. `lctl
// changelog_clear`). "A pointer is maintained to the most recently
// processed event tuple and all previous events are cleared" (§IV-2).
func (c *Changelog) Clear(id string, upTo uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.readers[id]
	if !ok {
		return fmt.Errorf("lustre: changelog_clear: unknown reader %q", id)
	}
	if upTo > cur {
		c.readers[id] = upTo
	}
	c.compactLocked()
	return nil
}

// compactLocked discards records consumed by all readers. With no readers
// registered, records are retained (as with real Changelogs, which are
// disabled/purged only explicitly — we keep them for inspection).
func (c *Changelog) compactLocked() {
	if len(c.readers) == 0 || len(c.records) == 0 {
		return
	}
	min := c.next - 1
	for _, v := range c.readers {
		if v < min {
			min = v
		}
	}
	if min < c.first {
		return
	}
	drop := int(min - c.first + 1)
	if drop > len(c.records) {
		drop = len(c.records)
	}
	c.cleared += uint64(drop)
	c.records = c.records[drop:]
	c.first += uint64(drop)
}

// Len returns the number of retained records.
func (c *Changelog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// NextIndex returns the index the next record will receive.
func (c *Changelog) NextIndex() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next
}

// Stats reports lifetime append/clear counters and current retention.
type ChangelogStats struct {
	MDT       int
	Appended  uint64
	Cleared   uint64
	Retained  int
	NextIndex uint64
}

// Stats returns a snapshot of the journal counters.
func (c *Changelog) Stats() ChangelogStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChangelogStats{
		MDT: c.mdt, Appended: c.appended, Cleared: c.cleared,
		Retained: len(c.records), NextIndex: c.next,
	}
}
