package eventstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fsmonitor/internal/events"
)

func ev(path string) events.Event {
	return events.Event{Root: "/r", Op: events.OpCreate, Path: path, Time: time.Unix(100, 0)}
}

func mustNew(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAppendAssignsSeq(t *testing.T) {
	s := mustNew(t, Options{})
	for i := 1; i <= 5; i++ {
		seq, err := s.Append(ev(fmt.Sprintf("/f%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Errorf("seq = %d, want %d", seq, i)
		}
	}
	if s.LastSeq() != 5 || s.Len() != 5 {
		t.Errorf("LastSeq=%d Len=%d", s.LastSeq(), s.Len())
	}
}

func TestSince(t *testing.T) {
	s := mustNew(t, Options{})
	for i := 0; i < 10; i++ {
		if _, err := s.Append(ev(fmt.Sprintf("/f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Since(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 8 {
		t.Errorf("Since(7) = %v", got)
	}
	got, _ = s.Since(0, 4)
	if len(got) != 4 || got[0].Seq != 1 {
		t.Errorf("Since(0,4) = %v", got)
	}
	got, _ = s.Since(100, 0)
	if len(got) != 0 {
		t.Errorf("Since(100) = %v", got)
	}
}

func TestSinceTime(t *testing.T) {
	s := mustNew(t, Options{})
	for i := 0; i < 5; i++ {
		e := ev("/f")
		e.Time = time.Unix(int64(i), 0)
		if _, err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.SinceTime(time.Unix(3, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("SinceTime = %v", got)
	}
}

func TestMarkReportedAndPurge(t *testing.T) {
	s := mustNew(t, Options{})
	for i := 0; i < 10; i++ {
		if _, err := s.Append(ev("/f")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MarkReported(6); err != nil {
		t.Fatal(err)
	}
	n, err := s.Purge()
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || s.Len() != 4 {
		t.Errorf("purged %d, retained %d", n, s.Len())
	}
	// Remaining events still queryable with original seqs.
	got, _ := s.Since(0, 0)
	if got[0].Seq != 7 {
		t.Errorf("first remaining seq = %d", got[0].Seq)
	}
	st := s.Stats()
	if st.Appended != 10 || st.Purged != 6 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMaxEventsBound(t *testing.T) {
	s := mustNew(t, Options{MaxEvents: 5})
	for i := 0; i < 8; i++ {
		if _, err := s.Append(ev("/f")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
	// Nothing was reported, so the overflow counted as evictions.
	if st := s.Stats(); st.Evicted != 3 {
		t.Errorf("Evicted = %d", st.Evicted)
	}
	// Oldest were evicted: first retained seq is 4.
	got, _ := s.Since(0, 1)
	if got[0].Seq != 4 {
		t.Errorf("first seq = %d", got[0].Seq)
	}
	// Reported events go first when present.
	s2 := mustNew(t, Options{MaxEvents: 5})
	for i := 0; i < 5; i++ {
		s2.Append(ev("/f"))
	}
	s2.MarkReported(2)
	s2.Append(ev("/g"))
	if st := s2.Stats(); st.Evicted != 0 || st.Purged != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "events.journal")
	s, err := New(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e := ev(fmt.Sprintf("/f%d", i))
		e.OldPath = "/old"
		e.Source = "lustre"
		if _, err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MarkReported(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 6 {
		t.Fatalf("recovered %d events", r.Len())
	}
	got, _ := r.Since(0, 0)
	if got[0].Path != "/f0" || got[0].OldPath != "/old" || got[0].Source != "lustre" {
		t.Errorf("recovered event = %+v", got[0])
	}
	// Reported flags survive: purging removes the first three.
	n, err := r.Purge()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("purged %d, want 3", n)
	}
	// New appends continue the sequence.
	seq, err := r.Append(ev("/new"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Errorf("continued seq = %d, want 7", seq)
	}
}

func TestOpenMissingJournalIsEmpty(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "none.journal")
	s, err := Open(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Error("expected empty store")
	}
	if _, err := Open(Options{}); err == nil {
		t.Error("Open without path succeeded")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := mustNew(t, Options{})
	s.Close()
	if _, err := s.Append(ev("/f")); err != ErrClosed {
		t.Errorf("Append = %v", err)
	}
	if _, err := s.Since(0, 0); err != ErrClosed {
		t.Errorf("Since = %v", err)
	}
	if err := s.MarkReported(1); err != ErrClosed {
		t.Errorf("MarkReported = %v", err)
	}
	if _, err := s.Purge(); err != ErrClosed {
		t.Errorf("Purge = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestAppendBlock(t *testing.T) {
	s := mustNew(t, Options{})
	last, err := s.AppendBlock(blockOf(t, []events.Event{ev("/a"), ev("/b"), ev("/c")}))
	if err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Errorf("last = %d", last)
	}
}

// Property: Since(k) returns exactly the events with seq > k, in order,
// regardless of interleaved purges.
func TestSinceCompletenessQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		s, _ := New(Options{})
		defer s.Close()
		live := map[uint64]bool{}
		var maxSeq uint64
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				seq, _ := s.Append(ev("/f"))
				live[seq] = true
				maxSeq = seq
			case 2:
				k := uint64(op)
				s.MarkReported(k)
			case 3:
				// purge removes reported events from live
				before, _ := s.Since(0, 0)
				s.Purge()
				after, _ := s.Since(0, 0)
				inAfter := map[uint64]bool{}
				for _, e := range after {
					inAfter[e.Seq] = true
				}
				for _, e := range before {
					if !inAfter[e.Seq] {
						delete(live, e.Seq)
					}
				}
			}
		}
		for k := uint64(0); k <= maxSeq; k++ {
			got, _ := s.Since(k, 0)
			want := 0
			for seq := range live {
				if seq > k {
					want++
				}
			}
			if len(got) != want {
				return false
			}
			var prev uint64
			for _, e := range got {
				if e.Seq <= k || e.Seq <= prev || !live[e.Seq] {
					return false
				}
				prev = e.Seq
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	s := mustNew(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := s.Append(ev("/f")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := s.Since(uint64(i*10), 50); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if s.Len() != 2000 {
		t.Errorf("Len = %d", s.Len())
	}
	// Sequence numbers unique and dense.
	got, _ := s.Since(0, 0)
	seen := map[uint64]bool{}
	for _, e := range got {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestCompactJournal(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "j.journal")
	s, err := New(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Append(ev("/f")); err != nil {
			t.Fatal(err)
		}
	}
	s.MarkReported(90)
	if _, err := s.Purge(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before, _ := osStatSize(jp)
	if err := s.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	after, _ := osStatSize(jp)
	if after >= before {
		t.Errorf("compaction did not shrink journal: %d -> %d", before, after)
	}
	// The store keeps working after compaction...
	if _, err := s.Append(ev("/g")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// ...and a recovered store sees the retained events plus the new one.
	r, err := Open(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 11 { // 10 unpurged + 1 appended post-compaction
		t.Errorf("recovered %d events, want 11", r.Len())
	}
	seq, err := r.Append(ev("/h"))
	if err != nil || seq != 102 {
		t.Errorf("continued seq = %d, %v", seq, err)
	}
}

func TestCompactJournalNoJournal(t *testing.T) {
	s := mustNew(t, Options{})
	if err := s.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.CompactJournal(); err != ErrClosed {
		t.Errorf("compact after close = %v", err)
	}
}

func osStatSize(p string) (int64, error) {
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
