package eventstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

func mkEvent(path string, ns int64) events.Event {
	return events.Event{Root: "/mnt", Op: events.OpCreate, Path: path, Time: time.Unix(0, ns), Source: "test"}
}

func TestShardedSeqLanes(t *testing.T) {
	s, err := NewSharded(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Partitions() != 4 {
		t.Fatalf("partitions = %d", s.Partitions())
	}
	// Each partition gets the interleaved lane part, part+4, part+8, ...
	// offset by one stride: part + 4, part + 8, ... so Seq%4 recovers it.
	for part := 0; part < 4; part++ {
		batch := blockOf(t, []events.Event{mkEvent(fmt.Sprintf("/p%d/a", part), 1), mkEvent(fmt.Sprintf("/p%d/b", part), 2)})
		last, err := s.AppendBlockPartition(part, batch)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < batch.Len(); k++ {
			seq, want := batch.Seq(k), uint64(part)+uint64(k+1)*4
			if seq != want {
				t.Errorf("part %d event %d seq = %d, want %d", part, k, seq, want)
			}
			if int(seq%4) != part {
				t.Errorf("seq %d does not map back to partition %d", seq, part)
			}
		}
		if last != batch.Seq(1) {
			t.Errorf("AppendBlockPartition returned %d, want %d", last, batch.Seq(1))
		}
	}
	vec := s.LastSeqVector()
	for part, last := range vec {
		if want := uint64(part) + 8; last != want {
			t.Errorf("LastSeqVector[%d] = %d, want %d", part, last, want)
		}
	}
}

func TestShardedSinceMergesGlobalOrder(t *testing.T) {
	s, err := NewSharded(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Interleave appends across partitions.
	for i := 0; i < 12; i++ {
		if _, err := s.AppendBlockPartition(i%3, blockOf(t, []events.Event{mkEvent(fmt.Sprintf("/f%d", i), int64(i))})); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 12 {
		t.Fatalf("Since(0) = %d events", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("merge out of order: %d then %d", all[i-1].Seq, all[i].Seq)
		}
	}
	// Global cutoff and max truncation.
	tail, err := s.Since(all[7].Seq, 0)
	if err != nil || len(tail) != 4 {
		t.Fatalf("Since(%d) = %d events, %v", all[7].Seq, len(tail), err)
	}
	capped, err := s.Since(0, 5)
	if err != nil || len(capped) != 5 {
		t.Fatalf("Since(0,5) = %d events, %v", len(capped), err)
	}
	for i := range capped {
		if capped[i].Seq != all[i].Seq {
			t.Errorf("capped[%d].Seq = %d, want %d (must be the globally smallest)", i, capped[i].Seq, all[i].Seq)
		}
	}
}

func TestShardedSinceVector(t *testing.T) {
	s, err := NewSharded(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if _, err := s.AppendBlockPartition(i%2, blockOf(t, []events.Event{mkEvent(fmt.Sprintf("/f%d", i), int64(i))})); err != nil {
			t.Fatal(err)
		}
	}
	// Partition lanes: p0 = 2,4,6  p1 = 3,5,7. A vector cursor expresses
	// "p0 fully drained, p1 not at all".
	got, err := s.SinceVector([]uint64{6, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("SinceVector = %d events, want 3", len(got))
	}
	for _, e := range got {
		if e.Seq%2 != 1 {
			t.Errorf("unexpected partition for seq %d", e.Seq)
		}
	}
	if _, err := s.SinceVector([]uint64{0}, 0); err == nil {
		t.Error("mismatched cursor vector accepted")
	}
	// MarkReportedVector + Purge honor per-partition cursors.
	if err := s.MarkReportedVector([]uint64{6, 3}); err != nil {
		t.Fatal(err)
	}
	n, err := s.Purge()
	if err != nil || n != 4 {
		t.Fatalf("Purge = %d, %v (p0 all 3 + p1 first)", n, err)
	}
	if got := s.Stats().Retained; got != 2 {
		t.Errorf("retained = %d", got)
	}
}

func TestShardedJournalSegmentsAndRecovery(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "events.journal")
	s, err := NewSharded(2, Options{JournalPath: jp, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.AppendBlockPartition(i%2, blockOf(t, []events.Event{mkEvent(fmt.Sprintf("/f%d", i), int64(i))})); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard journal segments exist; the unsuffixed path does not.
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.p%d", jp, i)); err != nil {
			t.Fatalf("journal segment %d: %v", i, err)
		}
	}
	if _, err := os.Stat(jp); !os.IsNotExist(err) {
		t.Errorf("unsuffixed journal should not exist with 2 partitions")
	}
	// Simulate a crash: no Close, reopen from the segments (SyncAlways
	// put every append on disk).
	s2, err := OpenSharded(2, Options{JournalPath: jp, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	all, err := s2.Since(0, 0)
	if err != nil || len(all) != 8 {
		t.Fatalf("recovered %d events, %v", len(all), err)
	}
	// Lanes continue where they left off: p0 held 2,4,6,8 → next is 10.
	if _, err := s2.AppendBlockPartition(0, blockOf(t, []events.Event{mkEvent("/next", 99)})); err != nil {
		t.Fatal(err)
	}
	if vec := s2.LastSeqVector(); vec[0] != 10 {
		t.Errorf("p0 lane after recovery = %d, want 10", vec[0])
	}
	s.Close()
}

// A single-partition Sharded engine must be indistinguishable from a plain
// Store — same sequence numbers and a byte-identical journal at the
// unmodified path.
func TestShardedOneMatchesStoreByteForByte(t *testing.T) {
	dir := t.TempDir()
	jpStore := filepath.Join(dir, "plain.journal")
	jpShard := filepath.Join(dir, "sharded.journal")
	st, err := New(Options{JournalPath: jpStore})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(1, Options{JournalPath: jpShard})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e := mkEvent(fmt.Sprintf("/f%d", i), int64(i))
		s1, err1 := st.Append(e)
		s2, err2 := sh.Partition(0).Append(e)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if s1 != s2 {
			t.Fatalf("seq diverged: store %d, sharded(1) %d", s1, s2)
		}
	}
	if err := st.MarkReported(5); err != nil {
		t.Fatal(err)
	}
	if err := sh.MarkReported(5); err != nil {
		t.Fatal(err)
	}
	st.Close()
	sh.Close()
	b1, err := os.ReadFile(jpStore)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(jpShard)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("journals differ:\nstore:   %q\nsharded: %q", b1, b2)
	}
}

func TestPartitionForPathStable(t *testing.T) {
	for _, parts := range []int{1, 2, 4, 7} {
		for i := 0; i < 50; i++ {
			p := fmt.Sprintf("/some/dir/file%d", i)
			a, b := PartitionForPath(p, parts), PartitionForPath(p, parts)
			if a != b {
				t.Fatalf("unstable partition for %q", p)
			}
			if a < 0 || a >= parts {
				t.Fatalf("partition %d out of range for parts=%d", a, parts)
			}
		}
	}
	if PartitionForPath("/anything", 1) != 0 {
		t.Error("parts=1 must map everything to 0")
	}
}
