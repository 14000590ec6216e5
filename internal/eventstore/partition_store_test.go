package eventstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"fsmonitor/internal/events"
)

func TestPartitionStoreSeqLane(t *testing.T) {
	const parts = 4
	for part := 0; part < parts; part++ {
		st, err := NewPartitionStore(parts, part, Options{})
		if err != nil {
			t.Fatal(err)
		}
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
		st.Close()
	}
}

// TestPartitionStoreHandoffContinuity is the handoff invariant: a
// partition journaled by one owner (here, inside a Sharded engine) is
// recovered by OpenPartitionStore with the same contents, and further
// appends continue the same sequence lane with no gap or overlap.
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

	st, err := OpenPartitionStore(parts, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Since(0, 0)
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
}

func TestPartitionStoreValidation(t *testing.T) {
	if _, err := NewPartitionStore(0, 0, Options{}); err == nil {
		t.Fatal("parts=0 accepted")
	}
	if _, err := NewPartitionStore(4, 4, Options{}); err == nil {
		t.Fatal("part out of range accepted")
	}
	if _, err := OpenPartitionStore(4, -1, Options{}); err == nil {
		t.Fatal("negative part accepted")
	}
}
