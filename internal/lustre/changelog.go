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
	mu  sync.Mutex
	mdt int
	// chunks hold the retained records, chunkRecords to a chunk: record
	// first is chunks[0][head], and each later one follows it. A chunk is
	// made at its final size and only appended to, so an append never copies
	// a record and a view of a chunk stays valid; Clear drops the chunks
	// every reader is wholly past.
	chunks     [][]Record
	head       int
	first      uint64            // index of the oldest retained record
	next       uint64            // index the next appended record receives
	readers    map[string]uint64 // reader id -> highest cleared index
	nextReader int
	appended   uint64
	cleared    uint64
	// wake is the channel Follow hands a reader with nothing left to read;
	// the next append closes it. It exists only while a reader waits, so an
	// append with no waiter costs a nil check.
	wake chan struct{}
}

// woken is the channel Follow returns when a record is already there.
var woken = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// newChangelog creates the journal for MDT index mdt. Indices start at 1.
func newChangelog(mdt int) *Changelog {
	return &Changelog{mdt: mdt, first: 1, next: 1, readers: make(map[string]uint64)}
}

// MDT returns the index of the MDT this journal belongs to.
func (c *Changelog) MDT() int { return c.mdt }

// chunkRecords is the size of a Changelog chunk: a multiple of the
// collector's read batch, so a drain from the start reads whole batches.
const chunkRecords = 4096

// append adds a record, assigning its index.
func (c *Changelog) append(r Record) Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Index = c.next
	r.MDT = c.mdt
	c.next++
	c.appended++
	if k := len(c.chunks) - 1; k < 0 || len(c.chunks[k]) == chunkRecords {
		c.chunks = append(c.chunks, make([]Record, 0, chunkRecords))
	}
	last := &c.chunks[len(c.chunks)-1]
	*last = append(*last, r)
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
	return r
}

// Follow returns a channel that is closed once a record with Index > since
// is retained: already closed if one is, otherwise by the next append. It
// is the blocking read of a real Changelog (CHANGELOG_FLAG_FOLLOW): a
// reader whose Read came back empty waits on it instead of polling, and an
// append between that Read and this call is not missed. Every waiter shares
// one channel until that append.
func (c *Changelog) Follow(since uint64) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next != c.first && since < c.next-1 {
		return woken
	}
	if c.wake == nil {
		c.wake = make(chan struct{})
	}
	return c.wake
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

// Read returns up to max records with Index > since, in index order, from
// one chunk: fewer than max (and than are retained) where that chunk ends.
// max <= 0 means no limit but the chunk's.
//
// The result is a read-only view of the journal's own chunk, not a copy:
// records are immutable once appended, an append writes only past every
// view's end (the view's capacity is clipped to its length, so appending to
// one reallocates) and Clear only drops chunks from the journal. A view
// stays valid for as long as the caller holds it, across any later append,
// Clear or Deregister, and pins the chunk behind it until dropped.
func (c *Changelog) Read(since uint64, max int) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next == c.first || since >= c.next-1 {
		return nil
	}
	pos := c.head
	if since >= c.first {
		pos += int(since - c.first + 1)
	}
	out := c.chunks[pos/chunkRecords][pos%chunkRecords:]
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
	if len(c.readers) == 0 || c.next == c.first {
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
	drop := min - c.first + 1
	c.cleared += drop
	c.first += drop
	c.head += int(drop)
	for c.head >= chunkRecords {
		c.chunks[0] = nil // let a chunk no view holds go
		c.chunks = c.chunks[1:]
		c.head -= chunkRecords
	}
}

// Len returns the number of retained records.
func (c *Changelog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.next - c.first)
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
		Retained: int(c.next - c.first), NextIndex: c.next,
	}
}
