package eventstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fsmonitor/internal/events"
	"fsmonitor/internal/telemetry"
)

// ErrNotHeld is returned by a partition-addressed append to a partition
// the engine does not currently hold.
var ErrNotHeld = errors.New("eventstore: partition not held")

// Sharded is the partitioned engine the aggregation tier stores into — the
// role MySQL plays in the paper's aggregator (§IV-2): P reference Stores,
// each with its own mutex and journal segment, carved into interleaved
// sequence lanes. An engine with P partitions assigns partition i the lane
// i+P, i+2P, i+3P, ... so Seq % P recovers the partition and comparing seqs
// still yields a cheap global order for Since/recovery queries. Appends to
// different shards never contend on a lock or a journal buffer, which is
// what lets the aggregation tier scale past the paper's single aggregator
// thread.
//
// With parts == 1 a Sharded engine is operationally identical to a plain
// Store — same 1,2,3,... seqs, same journal file at Options.JournalPath —
// so the default deployment reproduces the single-store behaviour exactly.
//
// The engine need not hold every partition. A member of a clustered
// aggregation tier holds exactly the partitions assigned to it:
// OpenPartition recovers one from its "<path>.p<i>" journal segment,
// ClosePartition flushes it back, and because lane and segment are
// functions of (parts, part) alone a partition handed between members
// keeps both. Query and maintenance methods skip partitions that are not
// held.
type Sharded struct {
	parts int
	opts  Options // base options every partition derives its own from

	// shards is the held set, indexed by partition, nil where not held. It
	// is copy-on-write: readers take one atomic load and see a consistent
	// set, OpenPartition and ClosePartition swap in a new slice under mu.
	shards atomic.Pointer[[]*Store]
	mu     sync.Mutex
	aud    *telemetry.Audit // attached to partitions opened later
}

// held returns the current held set.
func (s *Sharded) held() []*Store { return *s.shards.Load() }

// flushGroup coalesces the SyncEveryN windows of a multi-shard engine
// into one engine-wide window: shards count journaled events into a
// shared pool, and the append that fills it flushes every member's
// journal segment in one group pass. This keeps the engine's durability
// bound at SyncEvery unflushed events total (matching a single Store)
// while cutting the flush count from one-per-shard-window to
// one-per-engine-window.
//
// Locking: add runs under the appending store's lock (guarded by its own
// mutex, so concurrent shards race only on the counter), but flush is
// always called after that lock is released and takes the member locks
// one at a time — shard locks never nest.
type flushGroup struct {
	mu      sync.Mutex
	pending int
	every   int
	members []*Store
}

// add counts n newly journaled events and reports whether the window
// filled (resetting it when so — exactly one caller sees true per window).
func (g *flushGroup) add(n int) bool {
	g.mu.Lock()
	g.pending += n
	trig := g.pending >= g.every
	if trig {
		g.pending = 0
	}
	g.mu.Unlock()
	return trig
}

// flush flushes every member's journal buffer. Caller must not hold any
// member's lock.
func (g *flushGroup) flush() {
	for _, m := range g.members {
		m.mu.Lock()
		if !m.closed && m.jw != nil {
			m.flushLocked()
		}
		m.mu.Unlock()
	}
}

// shardOptions derives shard i's Options: its sequence lane, its journal
// segment ("<path>.p<i>" when parts > 1, the unmodified path when parts ==
// 1), and its share of the retention bound.
func shardOptions(opts Options, parts, i int) Options {
	o := opts
	o.seqStride = uint64(parts)
	o.seqOffset = uint64(i)
	if parts > 1 {
		if o.JournalPath != "" {
			o.JournalPath = fmt.Sprintf("%s.p%d", opts.JournalPath, i)
		}
		if o.MaxEvents > 0 {
			o.MaxEvents = (opts.MaxEvents + parts - 1) / parts
		}
	}
	return o
}

// NewSharded creates a partitioned engine with parts shards.
func NewSharded(parts int, opts Options) (*Sharded, error) {
	return buildSharded(parts, opts, New)
}

// OpenSharded recovers every shard from its journal segment (missing
// segments start empty), then continues appending.
func OpenSharded(parts int, opts Options) (*Sharded, error) {
	return buildSharded(parts, opts, Open)
}

func buildSharded(parts int, opts Options, mk func(Options) (*Store, error)) (*Sharded, error) {
	if parts < 1 {
		return nil, errors.New("eventstore: partitions must be >= 1")
	}
	shards := make([]*Store, parts)
	for i := range shards {
		st, err := mk(shardOptions(opts, parts, i))
		if err != nil {
			for _, done := range shards[:i] {
				done.Close()
			}
			return nil, err
		}
		shards[i] = st
	}
	s := &Sharded{parts: parts, opts: opts}
	s.shards.Store(&shards)
	// Multi-shard SyncEveryN engines share one flush window (see
	// flushGroup). A single shard keeps its private window so parts == 1
	// stays operationally identical to a plain Store.
	if parts > 1 && opts.Sync == SyncEveryN {
		every := opts.SyncEvery
		if every <= 0 {
			every = DefaultSyncEvery
		}
		g := &flushGroup{every: every, members: shards}
		for _, st := range shards {
			st.group = g
		}
	}
	return s, nil
}

// NewShardedClosed creates a partitioned engine that holds no partition
// yet: a member of a clustered aggregation tier, which opens each partition
// as it is assigned one (OpenPartition).
func NewShardedClosed(parts int, opts Options) (*Sharded, error) {
	if parts < 1 {
		return nil, errors.New("eventstore: partitions must be >= 1")
	}
	s := &Sharded{parts: parts, opts: opts}
	shards := make([]*Store, parts)
	s.shards.Store(&shards)
	return s, nil
}

// OpenPartition recovers partition part from its journal segment (a
// missing segment starts empty) and holds it, continuing the lane exactly
// one stride past the last durable seq. This is the handoff path: the new
// owner of a partition replays the old owner's segment. Without a
// JournalPath the partition is in-memory and its lane restarts at its base,
// so there is nothing for a handoff to replay — durable handoff requires
// the journal. The opened partition keeps a SyncEveryN window of its own,
// never a shared one. A partition already held is left as it is.
func (s *Sharded) OpenPartition(part int) error {
	if part < 0 || part >= s.parts {
		return fmt.Errorf("eventstore: partition %d out of range [0,%d)", part, s.parts)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held()[part] != nil {
		return nil
	}
	mk := Open
	if s.opts.JournalPath == "" {
		mk = New
	}
	st, err := mk(shardOptions(s.opts, s.parts, part))
	if err != nil {
		return err
	}
	st.SetAudit(s.aud, part)
	s.swapLocked(part, st)
	return nil
}

// ClosePartition flushes and closes partition part and stops holding it;
// its journal segment is then complete for the next owner to open. A
// partition not held is a no-op.
func (s *Sharded) ClosePartition(part int) error {
	if part < 0 || part >= s.parts {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.held()[part]
	if st == nil {
		return nil
	}
	s.swapLocked(part, nil)
	return st.Close()
}

// swapLocked publishes a copy of the held set with partition part replaced.
// Caller holds s.mu.
func (s *Sharded) swapLocked(part int, st *Store) {
	next := append([]*Store(nil), s.held()...)
	next[part] = st
	s.shards.Store(&next)
}

// Partition returns the held store of partition part, nil when the
// partition is not held (or out of range).
func (s *Sharded) Partition(part int) *Store {
	if part < 0 || part >= s.parts {
		return nil
	}
	return s.held()[part]
}

// OwnedPartitions returns the sorted partitions the engine holds.
func (s *Sharded) OwnedPartitions() []int {
	shards := s.held()
	out := make([]int, 0, len(shards))
	for p, sh := range shards {
		if sh != nil {
			out = append(out, p)
		}
	}
	return out
}

// Snapshot freezes the held set into a read-only view sharing the same
// stores: its OwnedPartitions and its queries describe one store set even
// while partitions move. The recovery server answers a request from one
// snapshot, so a partition released mid-request is either covered with its
// events or — its captured store now closed — fails the round with
// ErrClosed; it is never claimed as covered with its events missing.
func (s *Sharded) Snapshot() *Sharded {
	v := &Sharded{parts: s.parts, opts: s.opts}
	v.shards.Store(s.shards.Load())
	return v
}

// errPartitions builds the mismatched-cursor-vector error.
func errPartitions(got, want int) error {
	return fmt.Errorf("eventstore: cursor vector has %d entries, engine has %d partitions", got, want)
}

// PartitionForPath is PartitionForPathBytes for a path held as a string.
func PartitionForPath(path string, parts int) int {
	return PartitionForPathBytes([]byte(path), parts)
}

// PartitionForPathBytes is the stable fallback partition function: an
// FNV-1a hash of the event path, taken over raw arena bytes so that the
// event-block routing hop materializes no string. Callers that know a
// better affinity key (the collector's MDT index) route on that instead;
// the hash only has to keep one path's events in one partition.
func PartitionForPathBytes(path []byte, parts int) int {
	if parts <= 1 {
		return 0
	}
	const (
		fnvOffset32 = 2166136261
		fnvPrime32  = 16777619
	)
	h := uint32(fnvOffset32)
	for _, c := range path {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return int(h % uint32(parts))
}

// Partitions returns the partition count P (>= 1), held or not.
func (s *Sharded) Partitions() int { return s.parts }

// AppendBlockPartition stores the whole block in one shard under a single
// lock acquisition, assigning seqs into the block's seq column and
// returning the last one. Callers route by a stable key (MDT index, falling
// back to path hash) so a key's events share a partition and keep their
// relative order.
func (s *Sharded) AppendBlockPartition(part int, blk *events.Block) (uint64, error) {
	if part < 0 || part >= s.parts {
		return 0, fmt.Errorf("eventstore: partition %d out of range [0,%d)", part, s.parts)
	}
	sh := s.held()[part]
	if sh == nil {
		return 0, ErrNotHeld
	}
	return sh.AppendBlock(blk)
}

// collect runs one per-shard query over the held set and merges the results
// in global Seq order.
func (s *Sharded) collect(max int, query func(i int, sh *Store) ([]events.Event, error)) ([]events.Event, error) {
	shards := s.held()
	lists := make([][]events.Event, len(shards))
	for i, sh := range shards {
		if sh == nil {
			continue
		}
		l, err := query(i, sh)
		if err != nil {
			return nil, err
		}
		lists[i] = l
	}
	return MergeBySeq(lists, max), nil
}

// Since returns up to max events with Seq > seq merged from the held shards
// in global Seq order.
func (s *Sharded) Since(seq uint64, max int) ([]events.Event, error) {
	return s.collect(max, func(_ int, sh *Store) ([]events.Event, error) { return sh.Since(seq, max) })
}

// SinceVector returns up to max events not covered by the cursor vector —
// event e qualifies when e.Seq > cursors[e.Seq % P] — in global Seq order.
// len(cursors) must equal Partitions().
func (s *Sharded) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	if len(cursors) != s.parts {
		return nil, errPartitions(len(cursors), s.parts)
	}
	return s.collect(max, func(i int, sh *Store) ([]events.Event, error) { return sh.Since(cursors[i], max) })
}

// MergeBySeq k-way merges per-partition slices (each already ordered by
// Seq) into global Seq order, capped at max (<= 0 = all). Exported for the
// cluster recovery fan-in, which merges partition streams served by
// different members.
func MergeBySeq(lists [][]events.Event, max int) []events.Event {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	if max > 0 && total > max {
		total = max
	}
	out := make([]events.Event, 0, total)
	idx := make([]int, len(lists))
	for len(out) < total {
		best := -1
		var bestSeq uint64
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best == -1 || l[idx[i]].Seq < bestSeq {
				best, bestSeq = i, l[idx[i]].Seq
			}
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	return out
}

// MarkReported applies the global cutoff to every held shard: each flags
// its events with Seq <= seq.
func (s *Sharded) MarkReported(seq uint64) error {
	for _, sh := range s.held() {
		if sh == nil {
			continue
		}
		if err := sh.MarkReported(seq); err != nil {
			return err
		}
	}
	return nil
}

// MarkReportedVector flags, per held shard i, events with Seq <= cursors[i].
// len(cursors) must equal Partitions().
func (s *Sharded) MarkReportedVector(cursors []uint64) error {
	if len(cursors) != s.parts {
		return errPartitions(len(cursors), s.parts)
	}
	for i, sh := range s.held() {
		if sh == nil {
			continue
		}
		if err := sh.MarkReported(cursors[i]); err != nil {
			return err
		}
	}
	return nil
}

// Purge removes reported events from every held shard.
func (s *Sharded) Purge() (int, error) {
	total := 0
	for _, sh := range s.held() {
		if sh == nil {
			continue
		}
		n, err := sh.Purge()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Stats sums the held shards' counters; NextSeq reports the highest lane.
func (s *Sharded) Stats() Stats {
	var agg Stats
	for _, st := range s.ShardStats() {
		agg.Retained += st.Retained
		agg.Reported += st.Reported
		agg.Appended += st.Appended
		agg.Purged += st.Purged
		agg.Evicted += st.Evicted
		if st.NextSeq > agg.NextSeq {
			agg.NextSeq = st.NextSeq
		}
	}
	return agg
}

// ShardStats returns each partition's counters (zero where not held).
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, s.parts)
	for i, sh := range s.held() {
		if sh != nil {
			out[i] = sh.Stats()
		}
	}
	return out
}

// LastSeqVector returns each partition's highest assigned seq (0 = none
// yet, or not held).
func (s *Sharded) LastSeqVector() []uint64 {
	out := make([]uint64, s.parts)
	for i, sh := range s.held() {
		if sh != nil {
			out[i] = sh.LastSeq()
		}
	}
	return out
}

// Sync flushes every held shard's journal to disk, returning the first
// error.
func (s *Sharded) Sync() error {
	var first error
	for _, sh := range s.held() {
		if sh == nil {
			continue
		}
		if err := sh.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close closes every held shard, returning the first error.
func (s *Sharded) Close() error {
	var first error
	for _, sh := range s.held() {
		if sh == nil {
			continue
		}
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
