package eventstore

import (
	"fmt"
	"time"

	"fsmonitor/internal/events"
)

// Engine is the storage contract the aggregation tier programs against —
// the role MySQL plays in the paper's aggregator (§IV-2). The in-memory,
// journaled Store is the reference engine; Sharded composes N of them behind the
// same surface.
type Engine interface {
	// Append stores one event, assigning and returning its sequence number.
	Append(e events.Event) (uint64, error)
	// Since returns up to max events with Seq > seq in global order
	// (max <= 0 = all).
	Since(seq uint64, max int) ([]events.Event, error)
	// SinceTime returns up to max events recorded at or after t.
	SinceTime(t time.Time, max int) ([]events.Event, error)
	// MarkReported flags events with Seq <= seq as reported.
	MarkReported(seq uint64) error
	// Purge removes reported events, returning how many were removed.
	Purge() (int, error)
	// Stats returns a snapshot of the engine's counters (aggregated
	// across shards for partitioned engines).
	Stats() Stats
	// LastSeq returns the highest assigned sequence number (0 = none).
	LastSeq() uint64
	// Sync flushes any journal to disk.
	Sync() error
	// Close flushes and closes the engine.
	Close() error
}

// PartitionedEngine extends Engine with partition-addressed operations.
// Sequence numbers are shard-tagged: an engine with P partitions assigns
// partition i the lane i+P, i+2P, i+3P, ... so Seq % P recovers the
// partition and comparing seqs still yields a cheap global order. With
// P == 1 the lane is exactly the classic 1,2,3,... numbering.
type PartitionedEngine interface {
	Engine
	// Partitions returns the partition count P (>= 1).
	Partitions() int
	// AppendBlockPartition stores an event block entirely in partition
	// part, assigning sequence numbers directly into its seq column and
	// returning the last one. Callers route by a stable key (MDT index,
	// falling back to path hash) so a key's events share a partition and
	// keep their relative order.
	AppendBlockPartition(part int, blk *events.Block) (uint64, error)
	// SinceVector returns up to max events not covered by the cursor
	// vector — event e qualifies when e.Seq > cursors[e.Seq % P] — in
	// global Seq order. len(cursors) must equal Partitions().
	SinceVector(cursors []uint64, max int) ([]events.Event, error)
	// MarkReportedVector flags, per partition i, events with
	// Seq <= cursors[i] as reported. len(cursors) must equal Partitions().
	MarkReportedVector(cursors []uint64) error
	// LastSeqVector returns the highest assigned seq per partition
	// (0 = none yet in that partition).
	LastSeqVector() []uint64
}

// errPartitions builds the mismatched-cursor-vector error.
func errPartitions(got, want int) error {
	return fmt.Errorf("eventstore: cursor vector has %d entries, engine has %d partitions", got, want)
}

// Partitions reports that a plain Store is a single partition.
func (s *Store) Partitions() int { return 1 }

// AppendBlockPartition ignores the partition index (a Store has one lane).
func (s *Store) AppendBlockPartition(part int, blk *events.Block) (uint64, error) {
	return s.AppendBlock(blk)
}

// SinceVector on a single-partition store is Since(cursors[0]).
func (s *Store) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	if len(cursors) != 1 {
		return nil, errPartitions(len(cursors), 1)
	}
	return s.Since(cursors[0], max)
}

// MarkReportedVector on a single-partition store is MarkReported(cursors[0]).
func (s *Store) MarkReportedVector(cursors []uint64) error {
	if len(cursors) != 1 {
		return errPartitions(len(cursors), 1)
	}
	return s.MarkReported(cursors[0])
}

// LastSeqVector returns the single-lane resume cursor.
func (s *Store) LastSeqVector() []uint64 { return []uint64{s.LastSeq()} }

// AsPartitioned adapts any Engine to the partitioned surface. Engines that
// already implement PartitionedEngine are returned as-is; others are
// wrapped as a single partition.
func AsPartitioned(e Engine) PartitionedEngine {
	if pe, ok := e.(PartitionedEngine); ok {
		return pe
	}
	return singleEngine{e}
}

// singleEngine presents a plain Engine as one partition.
type singleEngine struct{ Engine }

func (w singleEngine) Partitions() int { return 1 }

// AppendBlockPartition appends event by event to an engine that only
// speaks Event, copying the assigned seqs back into the block.
func (w singleEngine) AppendBlockPartition(part int, blk *events.Block) (last uint64, err error) {
	blk.Intern()
	for i := 0; i < blk.Len(); i++ {
		if last, err = w.Append(blk.Event(i)); err != nil {
			return last, err
		}
		blk.SetSeq(i, last)
	}
	return last, nil
}

func (w singleEngine) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	if len(cursors) != 1 {
		return nil, errPartitions(len(cursors), 1)
	}
	return w.Since(cursors[0], max)
}

func (w singleEngine) MarkReportedVector(cursors []uint64) error {
	if len(cursors) != 1 {
		return errPartitions(len(cursors), 1)
	}
	return w.MarkReported(cursors[0])
}

func (w singleEngine) LastSeqVector() []uint64 { return []uint64{w.LastSeq()} }

// Interface conformance.
var (
	_ PartitionedEngine = (*Store)(nil)
	_ PartitionedEngine = (*Sharded)(nil)
	_ PartitionedEngine = singleEngine{}
)
