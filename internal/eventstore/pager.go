package eventstore

import (
	"encoding/binary"
	"math"

	"fsmonitor/internal/events"
)

// Pager reads the rows a cursor vector does not cover out of a Store or a
// Sharded engine in global seq order: the one merge behind the recovery
// server's pages and Sharded.SinceVector. For each shard it keeps a
// scratch block, filled under that shard's lock and refilled only once the
// merge has used it up; the merge itself runs outside every lock, so shard
// locks never nest (see flushGroup) and a writer waits for one copy at most.
// A row the store purges, evicts or overwrites after the fill is already the
// pager's. NextPage appends each row's wire entry straight into the pager's
// page buffer: no events.Event is built on the way to the wire.
//
// A Pager serves one reader at a time. A recovery connection keeps one for
// its lifetime, so every page and every request after its first reuses the
// same blocks and buffer.
type Pager struct {
	lanes []lane
	buf   []byte
}

// lane is one shard's side of the merge.
type lane struct {
	blk    *events.Block // rows filled from the shard; the merge is at pos
	pos    int
	cursor uint64 // seq of the last row filled: the next fill starts after it
	dry    bool   // the last fill found nothing (NextPage retries it per page)
}

// NewPager returns a pager without a request; Start gives it one.
func NewPager() *Pager { return &Pager{} }

// Start begins a request: lane i pages the rows with Seq > cursors[i]. Rows
// an earlier request filled and did not page out are dropped.
func (p *Pager) Start(cursors []uint64) {
	if cap(p.lanes) < len(cursors) {
		p.lanes = make([]lane, len(cursors))
	}
	p.lanes = p.lanes[:len(cursors)]
	for i, c := range cursors {
		l := &p.lanes[i]
		if l.blk == nil {
			l.blk = events.NewBlock(0, 0)
		}
		l.blk.Reset()
		l.pos, l.cursor, l.dry = 0, c, false
	}
}

// page appends up to max rows of the merge to the pager's buffer as one
// wire batch — u32 count, then the rows: the bytes events.Block.Wire gives
// for the same rows — and returns it, valid until the next call; nil once
// every lane is used up. Lanes fill max rows at a time.
func (p *Pager) page(shards []*Store, max int) ([]byte, error) {
	for i := range p.lanes {
		p.lanes[i].dry = false
	}
	buf := binary.LittleEndian.AppendUint32(p.buf[:0], 0)
	n := 0
	for n < max {
		blk, lo, hi, err := p.run(shards, max, max-n)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		buf = blk.AppendEntriesTo(buf, lo, hi)
		n += hi - lo
	}
	p.buf = buf
	if n == 0 {
		return nil, nil
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	return buf, nil
}

// run returns the merge's next run: rows [lo, hi) of one lane's block, at
// most limit of them, each ordered before the next row of every other lane.
// A used-up lane is first refilled from its shard, fill rows at a time; a
// nil shard (a partition not held) fills nothing. A nil block means every
// lane is used up.
func (p *Pager) run(shards []*Store, fill, limit int) (blk *events.Block, lo, hi int, err error) {
	best := -1
	var first, second uint64 = 0, math.MaxUint64 // the lowest next seq, and the lowest of the other lanes'
	for i := range p.lanes {
		l := &p.lanes[i]
		if l.pos == l.blk.Len() && !l.dry && i < len(shards) && shards[i] != nil {
			if err := shards[i].fill(l, fill); err != nil {
				return nil, 0, 0, err
			}
		}
		if l.pos == l.blk.Len() {
			continue
		}
		switch seq := l.blk.Seq(l.pos); {
		case best < 0:
			best, first = i, seq
		case seq < first:
			best, first, second = i, seq, first
		default:
			second = min(second, seq)
		}
	}
	if best < 0 {
		return nil, 0, 0, nil
	}
	l := &p.lanes[best]
	lo, hi = l.pos, l.pos+1
	for end := min(l.blk.Len(), lo+limit); hi < end && l.blk.Seq(hi) < second; hi++ {
	}
	l.pos = hi
	return l.blk, lo, hi, nil
}

// countAfter counts the retained rows with Seq > cursor: a size hint, stale
// once the lock is released.
func (s *Store) countAfter(cursor uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained - s.throughLocked(cursor)
}

// fill replaces l's rows with up to max of the retained rows past l.cursor,
// copied under the lock so that the merge reads them after it is released.
func (s *Store) fill(l *lane, max int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	l.blk.Reset()
	l.pos = 0
	skip := s.throughLocked(l.cursor)
	n, bytes := min(max, s.retained-skip), 0
	s.rowsLocked(skip, n, func(seg *events.Block, lo, hi int) { bytes += seg.StringBytes(lo, hi) })
	l.blk.Grow(n, bytes) // the rows may span segments: one allocation, not one per append
	s.rowsLocked(skip, n, l.blk.AppendRowsFrom)
	if n := l.blk.Len(); n > 0 {
		l.cursor = l.blk.Seq(n - 1)
	} else {
		l.dry = true
	}
	return nil
}

// NextPage pages the next up to max rows of p's request out of the store as
// one wire batch (see Pager); nil once the request is used up. A store is
// one lane: the request's cursor vector has one entry.
func (s *Store) NextPage(p *Pager, max int) ([]byte, error) {
	return p.page([]*Store{s}, max)
}

// Partitions is 1: a Store is one sequence lane.
func (s *Store) Partitions() int { return 1 }

// NextPage pages the next up to max rows of p's request — a cursor vector
// of Partitions() entries — out of the held shards in global seq order, as
// one wire batch (see Pager); nil once the request is used up. A shard
// closed under the request fails it with ErrClosed.
func (s *Sharded) NextPage(p *Pager, max int) ([]byte, error) {
	return p.page(s.held(), max)
}
