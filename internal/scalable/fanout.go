package scalable

import (
	"fmt"
	"strings"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
)

// RecoveryFanout is the clustered consumer's recovery source: one logical
// RecoverySource over every aggregator node's recovery server. A
// consumer cursor vector spans all partitions, but each node's store holds
// only the partitions it owns, so a single-server query cannot answer it;
// the fanout queries every node, reads each response's "owned" coverage
// frame, and accepts the round only when the union of coverage spans the
// whole partition space. During a handoff a partition may be momentarily
// claimed by nobody (old owner dead, new owner still replaying) — the
// fanout retries until coverage completes, which also guarantees the new
// owner's answer includes the replayed history, keeping recovery exact
// across the move.
type RecoveryFanout struct {
	parts   int
	clients []*RecoveryClient
	// Deadline bounds the coverage-retry loop (default 10s).
	Deadline time.Duration
}

// NewRecoveryFanout targets the recovery servers at addrs, serving a store
// sharded into parts partitions.
func NewRecoveryFanout(parts int, addrs ...string) *RecoveryFanout {
	if parts < 1 {
		parts = 1
	}
	f := &RecoveryFanout{parts: parts, Deadline: 10 * time.Second}
	for _, a := range addrs {
		f.clients = append(f.clients, NewRecoveryClient(a))
	}
	return f
}

// Partitions returns the partition count, letting ConsumerOptions derive
// its cursor-vector width from the fanout.
func (f *RecoveryFanout) Partitions() int { return f.parts }

// RecoverPages implements RecoverySource across the cluster: query every
// node, verify the coverage union spans all partitions, merge the per-node
// streams back into global Seq order — a duplicate seq (a dying owner and
// its successor both answering mid-handoff) collapses to one event — and
// hand the result over in pages. A single cursor is a uniform cutoff.
func (f *RecoveryFanout) RecoverPages(cursors []uint64, page func(*events.Block) error) error {
	if len(cursors) == 1 {
		cursors = uniform(cursors[0], f.parts)
	}
	if len(cursors) != f.parts {
		return fmt.Errorf("scalable: cursor vector has %d entries, fanout serves %d partitions", len(cursors), f.parts)
	}
	deadline := time.Now().Add(f.Deadline)
	lists, err := f.queryAll(cursors)
	for err != nil && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		lists, err = f.queryAll(cursors)
	}
	if err != nil {
		return err
	}
	merged := mergeDedup(lists)
	blk := events.NewBlock(min(len(merged), recoveryBatchMax), 0)
	for at := 0; at < len(merged); at += recoveryBatchMax {
		blk.Reset()
		for _, e := range merged[at:min(len(merged), at+recoveryBatchMax)] {
			if err := blk.AppendEvent(e); err != nil {
				return err
			}
		}
		if err := page(blk); err != nil {
			return err
		}
	}
	return nil
}

// queryAll runs one fan-out round. It returns an error when any partition
// is uncovered (a handoff in flight) or every node is unreachable.
func (f *RecoveryFanout) queryAll(cursors []uint64) ([][]events.Event, error) {
	covered := make([]bool, f.parts)
	var lists [][]events.Event
	var dialErrs []string
	for _, c := range f.clients {
		evs, owned, err := c.collect(cursors)
		if err != nil {
			// A dead node is expected during handoff; its partitions must
			// show up in a survivor's coverage before the round succeeds.
			dialErrs = append(dialErrs, err.Error())
			continue
		}
		if owned == nil {
			// No coverage frame: a classic single-store server answering
			// for the whole partition space.
			for p := range covered {
				covered[p] = true
			}
		} else {
			for _, p := range owned {
				if p >= 0 && p < f.parts {
					covered[p] = true
				}
			}
		}
		lists = append(lists, evs)
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("scalable: recovery fanout: no node reachable (%s)", strings.Join(dialErrs, "; "))
	}
	var missing []int
	for p, ok := range covered {
		if !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("scalable: recovery fanout: partitions %v uncovered", missing)
	}
	return lists, nil
}

// mergeDedup merges per-node streams into Seq order and drops duplicate
// sequence numbers. Unsequenced events (Seq 0, store disabled) never
// collapse. Each node's stream arrives Seq-ordered (its store merges its
// own partitions), which MergeBySeq requires.
func mergeDedup(lists [][]events.Event) []events.Event {
	merged := eventstore.MergeBySeq(lists)
	out := merged[:0]
	var prev uint64
	for _, e := range merged {
		if e.Seq != 0 && e.Seq == prev {
			continue
		}
		out = append(out, e)
		prev = e.Seq
	}
	return out
}
