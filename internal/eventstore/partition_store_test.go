package eventstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"fsmonitor/internal/events"
)

func TestPartitionStoreSeqLane(t *testing.T) {
	const parts = 4
	eng, err := NewShardedClosed(parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for part := 0; part < parts; part++ {
		if err := eng.OpenPartition(part); err != nil {
			t.Fatal(err)
		}
		st := eng.Partition(part)
		for k := 1; k <= 3; k++ {
			seq, err := st.Append(events.Event{Path: fmt.Sprintf("/f%d", k), Op: events.OpCreate})
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(part + k*parts)
			if seq != want {
				t.Fatalf("part %d append %d: seq %d, want %d", part, k, seq, want)
			}
		}
	}
}

// TestPartitionStoreHandoffContinuity is the handoff invariant: a
// partition journaled by one owner (here, inside a Sharded engine) is
// recovered by another engine's OpenPartition with the same contents, and
// further appends continue the same sequence lane with no gap or overlap.
// The new owner holds that partition only: its queries skip the rest and an
// append to a partition it does not hold is refused.
func TestPartitionStoreHandoffContinuity(t *testing.T) {
	const parts = 4
	base := filepath.Join(t.TempDir(), "journal")
	opts := Options{JournalPath: base, Sync: SyncAlways}

	eng, err := NewSharded(parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]events.Event, 6)
	for i := range batch {
		batch[i] = events.Event{Path: fmt.Sprintf("/old/%d", i), Op: events.OpCreate}
	}
	blk := blockOf(t, batch)
	lastOld, err := eng.AppendBlockPartition(2, blk)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	next, err := NewShardedClosed(parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if err := next.OpenPartition(2); err != nil {
		t.Fatal(err)
	}
	if owned := next.OwnedPartitions(); len(owned) != 1 || owned[0] != 2 {
		t.Fatalf("OwnedPartitions = %v, want [2]", owned)
	}
	if _, err := next.AppendBlockPartition(1, blockOf(t, batch)); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("append to a partition not held: err = %v, want ErrNotHeld", err)
	}
	st := next.Partition(2)
	got, err := next.SinceVector(make([]uint64, parts), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("recovered %d events, want %d", len(got), len(batch))
	}
	for i, e := range got {
		if e.Seq != blk.Seq(i) || e.Path != batch[i].Path {
			t.Fatalf("recovered[%d] = seq %d %q, want seq %d %q", i, e.Seq, e.Path, blk.Seq(i), batch[i].Path)
		}
	}
	seq, err := st.Append(events.Event{Path: "/new/0", Op: events.OpCreate})
	if err != nil {
		t.Fatal(err)
	}
	if seq != lastOld+parts {
		t.Fatalf("post-handoff seq %d, want %d (one stride past %d)", seq, lastOld+parts, lastOld)
	}

	// A snapshot taken while the partition is held keeps answering for it
	// until the partition is released, and then fails instead of skipping it.
	snap := next.Snapshot()
	if err := next.ClosePartition(2); err != nil {
		t.Fatal(err)
	}
	if owned := next.OwnedPartitions(); len(owned) != 0 {
		t.Fatalf("OwnedPartitions after release = %v, want none", owned)
	}
	if got, err := next.SinceVector(make([]uint64, parts), 0); err != nil || len(got) != 0 {
		t.Fatalf("query after release = %d events, %v; want none", len(got), err)
	}
	if owned := snap.OwnedPartitions(); len(owned) != 1 || owned[0] != 2 {
		t.Fatalf("snapshot OwnedPartitions = %v, want [2]", owned)
	}
	if _, err := snap.SinceVector(make([]uint64, parts), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot query after release: err = %v, want ErrClosed", err)
	}
}

func TestPartitionStoreValidation(t *testing.T) {
	if _, err := NewShardedClosed(0, Options{}); err == nil {
		t.Fatal("parts=0 accepted")
	}
	// A shard's stride is its segments', which keep it in 16 bits. The
	// check runs before any shard is made.
	if _, err := NewSharded(1<<16, Options{}); err == nil {
		t.Fatal("parts=65536 accepted")
	}
	if _, err := NewShardedClosed(1<<16, Options{}); err == nil {
		t.Fatal("parts=65536 accepted by NewShardedClosed")
	}
	if eng, err := NewShardedClosed(1<<16-1, Options{}); err != nil {
		t.Fatalf("parts=65535: %v", err)
	} else {
		eng.Close()
	}
	eng, err := NewShardedClosed(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenPartition(4); err == nil {
		t.Fatal("part out of range accepted")
	}
	if err := eng.OpenPartition(-1); err == nil {
		t.Fatal("negative part accepted")
	}
}
