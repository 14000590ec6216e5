// Package eventstore implements FSMonitor's reliable event store — the
// role MySQL plays in the paper (§IV-2 Aggregation: one aggregator thread
// "stores the events into a local database to enable fault tolerance", and
// §III-A3: the interface layer stores events, flags them once reported,
// and removes them on the next purge cycle; "the size of this database is
// configurable").
//
// The store assigns each event a monotonically increasing sequence number,
// serves "events since ID" queries for consumer fault recovery, tracks the
// reported flag, and bounds its size by purging reported events. An
// optional journal (journal.go) provides durability across process restarts.
//
// The retained window is columnar: a list of events.Block segments the
// store owns, filled by copying — the store never keeps a reference to
// caller memory — and read either by materializing exactly the page a query
// asks for or, for the recovery wire, by a Pager that copies rows out under
// the lock and encodes them straight into wire batches. Segments hold no
// pointers, so the garbage collector does not scan retained history.
package eventstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"fsmonitor/internal/events"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("eventstore: closed")

// SyncPolicy controls when journaled events are flushed from the in-process
// buffer to the operating system.
//
// Durability tradeoff: the journal writer is buffered, so an event that has
// been Appended but not yet flushed is lost if the monitor process dies.
// SyncOnClose (the default, and the historical behaviour) buffers until
// Sync/Close/CompactJournal — fastest, weakest. SyncEveryN bounds the loss
// window to N events. SyncAlways flushes after every Append/AppendBlock, so
// any event acknowledged to the aggregator survives a process crash.
// All policies flush to the OS page cache; surviving power loss additionally
// requires Sync, which fsyncs the file.
//
// Under a multi-shard Sharded engine the SyncEveryN window is shared
// across shards (see flushGroup): the shards count appends into one pool
// and, when it reaches SyncEvery, every shard's journal segment is
// flushed together. The durability bound is therefore at most SyncEvery
// unflushed events for the whole engine — the same guarantee a single
// Store gives — rather than SyncEvery per shard (up to P·SyncEvery
// engine-wide), which is what independent per-shard windows would allow.
// A single-shard engine keeps its own window and is byte-for-byte
// identical to a plain Store.
type SyncPolicy int

const (
	// SyncOnClose flushes the journal only on Sync, Close, or journal
	// compaction (historical behaviour).
	SyncOnClose SyncPolicy = iota
	// SyncAlways flushes the journal after every Append/AppendBlock.
	SyncAlways
	// SyncEveryN flushes the journal once at least Options.SyncEvery
	// events have accumulated since the last flush.
	SyncEveryN
)

// DefaultSyncEvery is the flush interval used by SyncEveryN when
// Options.SyncEvery is unset.
const DefaultSyncEvery = 256

// Options configures a Store.
type Options struct {
	// MaxEvents bounds the number of retained events (0 = unbounded).
	// When the bound is hit, the oldest reported events are discarded
	// first; if all retained events are unreported, the oldest are
	// discarded anyway and counted as Evicted (the paper sizes the
	// database "depending on the resources available to FSMonitor").
	MaxEvents int
	// JournalPath, if non-empty, appends every stored batch to a journal of
	// checksummed records so a restarted monitor can reload history with Open.
	JournalPath string
	// Sync selects when journal writes reach the OS (see SyncPolicy).
	Sync SyncPolicy
	// SyncEvery is the flush interval for SyncEveryN
	// (<= 0 uses DefaultSyncEvery).
	SyncEvery int

	// seqStride/seqOffset carve the sequence space into interleaved
	// lanes for the Sharded engine: shard i of P assigns offset+1·P+i,
	// offset+2·P+i, ... so the shard index is recoverable as Seq %
	// stride and a stride of 1 (the default) reproduces the classic
	// 1,2,3,... numbering exactly. Package-private: only NewSharded
	// sets them.
	seqStride uint64
	seqOffset uint64
}

// segmentEvents is the row capacity of a store segment: a segment is closed
// once the next block no longer fits below it, so only a block larger than
// this makes a longer one. segEvents is the same, as a variable only so that
// tests can shrink it and cross segment boundaries constantly.
const segmentEvents = 8192

var segEvents = segmentEvents

// Store is a goroutine-safe reliable event store.
type Store struct {
	mu   sync.Mutex
	opts Options
	// segs is the retained window, oldest first, as store-owned columnar
	// segments in Seq order (not necessarily contiguous after a reopen).
	// The first head rows of segs[0] are already dropped; a segment leaves
	// the list when its last row is.
	segs     []*events.Block
	head     int
	retained int
	// ackedThrough is the reported set: acks are always a prefix, so every
	// retained event with Seq <= ackedThrough is flagged and no other is.
	ackedThrough uint64
	nextSeq      uint64
	jw           *journalWriter // nil without a journal
	closed       bool

	pendingSync               int // events buffered since the last flush (SyncEveryN)
	appended, purged, evicted uint64

	// group, when non-nil, replaces the store's own SyncEveryN window
	// with a window shared across the shards of one Sharded engine.
	// Only buildSharded sets it.
	group *flushGroup
	// jerr latches the first journal write or flush error: appends keep
	// succeeding in memory, Sync, Close and CompactJournal report it.
	jerr error

	tel storeTel // nil handles when telemetry is off — every call is a no-op
}

// normalize fills in the sequence-lane defaults.
func (o *Options) normalize() {
	if o.seqStride == 0 {
		o.seqStride = 1
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
}

// New creates a store with the given options.
func New(opts Options) (*Store, error) {
	opts.normalize()
	s := &Store{opts: opts, nextSeq: opts.seqOffset + opts.seqStride}
	if opts.JournalPath != "" {
		var err error
		if s.jw, err = openJournalWriter(opts.JournalPath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Open recovers a store from an existing journal, then continues appending
// to it: every 'E' record is bulk-copied into the tail segment, every 'R'
// record raises the reported mark. The torn tail of a crashed writer is
// logged and cut off, so that the next append starts on a record boundary;
// corruption and files that are not journals fail the open (ReadJournal).
func Open(opts Options) (*Store, error) {
	if opts.JournalPath == "" {
		return nil, errors.New("eventstore: Open requires a JournalPath")
	}
	opts.normalize()
	s := &Store{opts: opts, nextSeq: opts.seqOffset + opts.seqStride}
	var last uint64
	torn, err := ReadJournal(opts.JournalPath, func(blk *events.Block, reported uint64) error {
		if blk == nil {
			s.markReportedLocked(reported)
			return nil
		}
		n := blk.Len()
		for i := 0; i < n; i++ {
			if blk.Seq(i) <= last {
				return fmt.Errorf("seq %d follows seq %d", blk.Seq(i), last)
			}
			last = blk.Seq(i)
		}
		s.tailLocked(n).AppendBlock(blk)
		s.retained += n
		s.appended += uint64(n)
		if last >= s.nextSeq {
			// The journal only ever holds seqs from one lane, so advancing
			// by the stride preserves Seq % stride across restarts.
			s.nextSeq = last + opts.seqStride
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) { // no journal yet is an empty one
		return nil, err
	}
	if torn >= 0 {
		slog.Warn("eventstore: dropped torn journal tail", "journal", opts.JournalPath, "offset", torn)
		if err := os.Truncate(opts.JournalPath, torn); err != nil {
			return nil, fmt.Errorf("eventstore: cut torn journal tail: %w", err)
		}
	}
	if s.jw, err = openJournalWriter(opts.JournalPath); err != nil {
		return nil, err
	}
	return s, nil
}

// tailLocked returns the segment the next n rows go into: the current tail
// while they fit below segEvents, a new segment otherwise. A new segment is
// allocated whole, its arena as large as the one's before it, so a steady
// stream appends without allocating; a store's first segment has nothing to
// be sized from and grows on demand, as most stores stay small. What either
// half buys is measured in EXPERIMENTS.md ("Segment sizing").
func (s *Store) tailLocked(n int) *events.Block {
	var prev *events.Block
	if len(s.segs) > 0 {
		prev = s.segs[len(s.segs)-1]
		if prev.Len()+n <= segEvents || prev.Len() == 0 {
			return prev
		}
	}
	seg := events.NewBlock(0, 0)
	if prev != nil {
		seg = events.NewBlock(max(segEvents, n), prev.ArenaLen())
	}
	s.segs = append(s.segs, seg)
	return seg
}

// Append stores the event, assigning and returning its sequence number. An
// event that does not fit a block row (events.Block.AppendEvent: Root, Path,
// OldPath over 64 KB, Source over 255 bytes) is neither stored nor journaled.
func (s *Store) Append(e events.Event) (uint64, error) {
	if h := s.tel.appendUS; h != nil {
		defer h.ObserveSince(time.Now())
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	e.Seq = s.nextSeq
	tail := s.tailLocked(1)
	if err := tail.AppendEvent(e); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.retained++
	s.appended++
	s.nextSeq += s.opts.seqStride
	if s.jw != nil {
		s.journalLocked(tail.AppendRowsTo(newRecord(s.jw.buf, kindEvents), tail.Len()-1, tail.Len()))
	}
	s.appendedLocked(e.Seq, 1)
	return e.Seq, nil
}

// appendedLocked runs what follows every append — audit, sync policy,
// retention bound — and releases the lock, which a group flush must not hold.
func (s *Store) appendedLocked(last uint64, n int) {
	s.tel.auditAppend(last, n, s.opts.seqStride)
	groupFlush := s.maybeFlushLocked(n)
	s.enforceBoundLocked()
	s.mu.Unlock()
	if groupFlush {
		s.group.flush()
	}
}

// AppendBlock stores every event of the block under a single lock
// acquisition, assigning sequence numbers directly into the block's seq
// column, and returns the last one. The store copies the block's columns
// and string bytes into its own tail segment and keeps no reference to the
// block: the caller may Reset, refill or recycle it at once. Beyond the
// seqs the block is only read — its strings are not interned here: the
// store has its own copy, and a reader that wants them as Go strings makes
// the one copy it needs where it reads them (Block.AppendPickedTo). The
// journal receives the batch as one record, encoded once into the store's
// scratch buffer.
func (s *Store) AppendBlock(blk *events.Block) (uint64, error) {
	n := blk.Len()
	if n == 0 {
		return 0, nil
	}
	if h := s.tel.appendUS; h != nil {
		defer h.ObserveSince(time.Now())
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	for i := 0; i < n; i++ {
		blk.SetSeq(i, s.nextSeq)
		s.nextSeq += s.opts.seqStride
	}
	last := s.nextSeq - s.opts.seqStride
	s.tailLocked(n).AppendBlock(blk)
	s.retained += n
	s.appended += uint64(n)
	if s.jw != nil {
		s.journalLocked(blk.AppendRowsTo(newRecord(s.jw.buf, kindEvents), 0, n))
	}
	s.appendedLocked(last, n)
	return last, nil
}

// journalLocked writes a record begun in s.jw.buf to the journal.
func (s *Store) journalLocked(rec []byte) {
	s.tel.journalBytes.Add(uint64(len(rec)))
	s.latchLocked(s.jw.write(rec))
}

// latchLocked keeps the first journal error, reporting it once.
func (s *Store) latchLocked(err error) {
	if err == nil || s.jerr != nil {
		return
	}
	s.jerr = fmt.Errorf("eventstore: journal %s: %w", s.opts.JournalPath, err)
	slog.Error("eventstore: journal write failed", "journal", s.opts.JournalPath, "err", err)
	s.tel.journalErrors.Inc()
}

// flushLocked flushes the journal buffer, timing it when telemetry is on.
func (s *Store) flushLocked() {
	if h := s.tel.flushUS; h != nil {
		defer h.ObserveSince(time.Now())
	}
	s.latchLocked(s.jw.w.Flush())
}

// maybeFlushLocked applies the SyncPolicy after n newly journaled events.
// The returned flag asks the caller to run s.group.flush() after
// releasing s.mu — flushing the group's other shards while holding this
// store's lock would nest shard locks and invite deadlock.
func (s *Store) maybeFlushLocked(n int) (groupFlush bool) {
	if s.jw == nil {
		return false
	}
	switch s.opts.Sync {
	case SyncAlways:
		s.flushLocked()
	case SyncEveryN:
		if s.group != nil {
			return s.group.add(n)
		}
		s.pendingSync += n
		if s.pendingSync >= s.opts.SyncEvery {
			s.flushLocked()
			s.pendingSync = 0
		}
	}
	return false
}

// searchLocked returns how many retained events precede the first one for
// which past holds. past must be monotone over the window (false, then
// true) — Seq and record time both are — so it is one binary search over
// the segments' last rows and one inside the segment found.
func (s *Store) searchLocked(past func(seg *events.Block, row int) bool) int {
	si := sort.Search(len(s.segs), func(i int) bool {
		n := s.segs[i].Len() // 0 only for a tail nothing has landed in yet
		return n == 0 || past(s.segs[i], n-1)
	})
	before := -s.head
	for _, seg := range s.segs[:si] {
		before += seg.Len()
	}
	if si < len(s.segs) {
		// The dropped head rows of segs[0] are still in place and in order;
		// a hit among them means nothing retained precedes it.
		seg := s.segs[si]
		before += sort.Search(seg.Len(), func(i int) bool { return past(seg, i) })
	}
	return max(before, 0)
}

// throughLocked counts the retained events with Seq <= seq.
func (s *Store) throughLocked(seq uint64) int {
	return s.searchLocked(func(seg *events.Block, row int) bool { return seg.Seq(row) > seq })
}

// rowsLocked hands fn the retained rows [skip, skip+n), segment by segment,
// as row ranges of the segments they sit in.
func (s *Store) rowsLocked(skip, n int, fn func(seg *events.Block, lo, hi int)) {
	skip += s.head
	for _, seg := range s.segs {
		if n <= 0 {
			return
		}
		if skip >= seg.Len() {
			skip -= seg.Len()
			continue
		}
		hi := min(seg.Len(), skip+n)
		fn(seg, skip, hi)
		n -= hi - skip
		skip = 0
	}
}

// pageLocked materializes up to max retained events after skipping the
// first skip (max <= 0 = all).
func (s *Store) pageLocked(skip, max int) []events.Event {
	n := s.retained - skip
	if n <= 0 {
		return nil
	}
	if max > 0 && n > max {
		n = max
	}
	out := make([]events.Event, 0, n)
	s.rowsLocked(skip, n, func(seg *events.Block, lo, hi int) { out = seg.AppendRangeTo(out, lo, hi) })
	return out
}

// dropHeadLocked removes the n oldest retained events, releasing every
// segment whose last row goes.
func (s *Store) dropHeadLocked(n int) {
	s.retained -= n
	s.head += n
	for len(s.segs) > 0 && s.head >= s.segs[0].Len() {
		if len(s.segs) == 1 {
			// Keep the emptied tail for the next appends.
			s.segs[0].Reset()
			s.head = 0
			return
		}
		s.head -= s.segs[0].Len()
		s.segs[0] = nil
		s.segs = s.segs[1:]
	}
}

// Since returns up to max events with Seq > seq in order (max <= 0 = all).
// This is the consumer fault-recovery query: "If users provide an event
// identifier, FSMonitor will only report events that have happened since
// that event" (§III-A3).
func (s *Store) Since(seq uint64, max int) ([]events.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.pageLocked(s.throughLocked(seq), max), nil
}

// SinceTime returns events recorded at or after t. Timestamps are assumed
// monotonically non-decreasing in append order (true for events stamped by
// one monitor clock), which makes the window binary-searchable by time too.
func (s *Store) SinceTime(t time.Time, max int) ([]events.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ns := t.UnixNano()
	skip := s.searchLocked(func(seg *events.Block, row int) bool { return seg.TimeNano(row) >= ns })
	return s.pageLocked(skip, max), nil
}

// MarkReported flags every stored event with Seq <= seq as reported
// ("Once events have been retrieved from FSMonitor, they are flagged as
// having been reported and can be removed from the database").
func (s *Store) MarkReported(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.markReportedLocked(seq)
	if s.jw != nil {
		s.journalLocked(binary.LittleEndian.AppendUint64(newRecord(s.jw.buf, kindReported), seq))
		s.maybeFlushLocked(0)
	}
	return nil
}

// markReportedLocked raises the reported high-water mark to seq, capped at
// the last assigned seq: an ack covers stored events only, never ones
// appended later.
func (s *Store) markReportedLocked(seq uint64) {
	if last := s.nextSeq - s.opts.seqStride; seq > last {
		seq = last
	}
	if seq > s.ackedThrough {
		s.ackedThrough = seq
	}
}

// Purge removes reported events (the "next data purge cycle" of §IV-2),
// returning how many were removed.
func (s *Store) Purge() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	removed := s.throughLocked(s.ackedThrough)
	s.dropHeadLocked(removed)
	s.purged += uint64(removed)
	return removed, nil
}

// enforceBoundLocked drops the oldest events past MaxEvents. Reported
// events are the oldest there are, so the drop counts as purged up to the
// number reported and as evicted beyond it.
func (s *Store) enforceBoundLocked() {
	over := s.retained - s.opts.MaxEvents
	if s.opts.MaxEvents <= 0 || over <= 0 {
		return
	}
	reported := min(over, s.throughLocked(s.ackedThrough))
	s.dropHeadLocked(over)
	s.purged += uint64(reported)
	s.evicted += uint64(over - reported)
}

// Stats is a snapshot of store counters.
type Stats struct {
	Retained int
	Reported int
	Appended uint64
	Purged   uint64
	Evicted  uint64
	NextSeq  uint64
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Retained: s.retained, Reported: s.throughLocked(s.ackedThrough),
		Appended: s.appended, Purged: s.purged, Evicted: s.evicted, NextSeq: s.nextSeq,
	}
}

// Len returns the number of retained events.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained
}

// LastSeq returns the highest assigned sequence number (0 = none yet).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nextSeq == s.opts.seqOffset+s.opts.seqStride {
		return 0 // nothing assigned yet
	}
	return s.nextSeq - s.opts.seqStride
}

// CompactJournal rewrites the journal to contain only the currently
// retained events and their reported flags, reclaiming space from purged
// history (the journal otherwise grows without bound across purge cycles).
// No-op without a journal.
func (s *Store) CompactJournal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.jw == nil || s.jerr != nil {
		return s.jerr
	}
	// Write the replacement through a writer of its own: an 'E' record per
	// retained segment, then the mark. A failed write resurfaces from Flush.
	path := s.opts.JournalPath + ".compact"
	os.Remove(path)
	tmp, err := openJournalWriter(path)
	if err != nil {
		return err
	}
	s.rowsLocked(0, s.retained, func(seg *events.Block, lo, hi int) {
		tmp.write(seg.AppendRowsTo(newRecord(tmp.buf, kindEvents), lo, hi))
	})
	if s.throughLocked(s.ackedThrough) > 0 {
		tmp.write(binary.LittleEndian.AppendUint64(newRecord(tmp.buf, kindReported), s.ackedThrough))
	}
	if err = errors.Join(tmp.w.Flush(), tmp.f.Sync()); err == nil {
		err = os.Rename(path, s.opts.JournalPath)
	}
	if err != nil {
		tmp.f.Close()
		os.Remove(path)
		return fmt.Errorf("eventstore: compact journal %s: %w", s.opts.JournalPath, err)
	}
	// The new file is the journal from here on; the old one's buffer holds
	// nothing it does not.
	s.jw.f.Close()
	s.jw, s.pendingSync = tmp, 0
	return nil
}

// Sync flushes the journal to disk, reporting the journal's first error.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jw == nil {
		return nil
	}
	s.flushLocked()
	s.pendingSync = 0
	if s.jerr == nil {
		if h := s.tel.flushUS; h != nil {
			defer h.ObserveSince(time.Now())
		}
		s.latchLocked(s.jw.f.Sync())
	}
	return s.jerr
}

// Close flushes and closes the store, reporting the first journal error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.jw != nil {
		s.flushLocked()
		s.latchLocked(s.jw.f.Close())
	}
	return s.jerr
}
