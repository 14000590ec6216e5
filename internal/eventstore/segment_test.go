package eventstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

// journalOf writes n events through a store and returns the journal path.
func journalOf(t *testing.T, n int) string {
	t.Helper()
	jp := filepath.Join(t.TempDir(), "j.jsonl")
	s, err := New(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBlock(blockOf(t, sampleEvents(n))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return jp
}

// A torn trailing line — what a crashed writer leaves — costs exactly the
// event it tore, and the store keeps working on that journal: what is
// appended after the recovery must not be glued onto the fragment, or the
// restart after that finds an undecodable interior line.
func TestOpenRecoversTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  int // bytes cut off the journal's tail
		want int // events of 8 that survive
	}{
		{"mid-line", 9, 7},
		{"newline-only", 1, 8}, // the last line is whole, only its '\n' is gone
	} {
		t.Run(tc.name, func(t *testing.T) {
			jp := journalOf(t, 8)
			data, err := os.ReadFile(jp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(jp, data[:len(data)-tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(Options{JournalPath: jp})
			if err != nil {
				t.Fatalf("Open over a torn tail: %v", err)
			}
			got, err := s.Since(0, 0)
			if err != nil || len(got) != tc.want || got[tc.want-1].Seq != uint64(tc.want) {
				t.Fatalf("recovered %d events (err %v), want the %d before the tear", len(got), err, tc.want)
			}
			if _, err := s.AppendBlock(blockOf(t, sampleEvents(3))); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(Options{JournalPath: jp})
			if err != nil {
				t.Fatalf("second Open, after appending past the torn tail: %v", err)
			}
			defer s.Close()
			got, err = s.Since(0, 0)
			if err != nil || len(got) != tc.want+3 || got[len(got)-1].Seq != uint64(tc.want+3) {
				t.Fatalf("second Open recovered %d events (err %v), want %d", len(got), err, tc.want+3)
			}
		})
	}
}

// A record of a kind this version does not know is skipped, not fatal: only
// a line that is not JSON counts as damage.
func TestOpenSkipsUnknownRecordKinds(t *testing.T) {
	jp := journalOf(t, 4)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[2] = append([]byte("{\"kind\":\"checkpoint\",\"seq\":2}\n{\"kind\":\"event\"}\n"), lines[2]...)
	if err := os.WriteFile(jp, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{JournalPath: jp})
	if err != nil {
		t.Fatalf("Open over unknown record kinds: %v", err)
	}
	defer s.Close()
	if n := s.Len(); n != 4 {
		t.Fatalf("recovered %d events, want 4", n)
	}
}

// An event too large for a block row is refused by Append before it is
// stored or journaled, and one found in a journal (written by a version
// without the limit) fails Open with that error, not as a torn line.
func TestOversizeEventIsRejectedByName(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "j.jsonl")
	s, err := New(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	big := events.Event{Root: "/mnt", Op: events.OpCreate, Path: strings.Repeat("p", 1<<16), Time: time.Unix(0, 1)}
	if _, err := s.Append(big); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Append of a 64 KB path = %v, want the size error", err)
	}
	if st := s.Stats(); st.Retained != 0 || st.Appended != 0 || st.NextSeq != 1 {
		t.Fatalf("rejected event left a mark: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	big.Seq = 1
	line, err := appendEventLine(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, line, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{JournalPath: jp})
	if err == nil || !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "exceeds") ||
		strings.Contains(err.Error(), "undecodable") {
		t.Fatalf("Open over an oversize last event = %v, want the size error naming line 1", err)
	}
}

// Damage anywhere before the last line must fail the open loudly instead
// of silently losing the event.
func TestOpenRejectsInteriorDamage(t *testing.T) {
	flip := func(t *testing.T, jp string, line int) {
		t.Helper()
		data, err := os.ReadFile(jp)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		lines[line][0] ^= 0x40 // '{' becomes ';': no longer JSON
		if err := os.WriteFile(jp, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("store", func(t *testing.T) {
		jp := journalOf(t, 8)
		flip(t, jp, 3)
		_, err := Open(Options{JournalPath: jp})
		if err == nil || !strings.Contains(err.Error(), "line 4") {
			t.Fatalf("Open over a damaged line 4 = %v, want an error naming the line", err)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		jp := filepath.Join(t.TempDir(), "j.jsonl")
		eng, err := NewSharded(2, Options{JournalPath: jp})
		if err != nil {
			t.Fatal(err)
		}
		for part := 0; part < 2; part++ {
			if _, err := eng.AppendBlockPartition(part, blockOf(t, sampleEvents(5))); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		flip(t, jp+".p1", 1)
		_, err = OpenSharded(2, Options{JournalPath: jp})
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("OpenSharded over a damaged segment = %v, want an error naming line 2", err)
		}
	})
}

// pipelineBlock builds a block the size the pipeline pools hand out,
// carrying n events.
func pipelineBlock(t testing.TB, n, serial int) *events.Block {
	t.Helper()
	blk := events.NewBlock(512, 32<<10)
	for i := 0; i < n; i++ {
		e := events.Event{
			Root: "/mnt/lustre", Op: events.OpModify, Path: fmt.Sprintf("/dir%02d/file%04d", serial%64, (serial+i)%4096),
			Time: time.Unix(0, int64(serial+i)), Source: "mdt0",
		}
		if err := blk.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return blk
}

// warmStore returns a journal-less store whose tail is a preallocated
// segment with room for at least 3000 more rows.
func warmStore(t testing.TB) *Store {
	t.Helper()
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	blk := pipelineBlock(t, 512, 0)
	for i := 0; i <= segmentEvents/512; i++ {
		if _, err := s.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// Appending a block into a warm tail segment is a copy and nothing else.
func TestAppendBlockWarmTailAllocatesNothing(t *testing.T) {
	s := warmStore(t)
	blk := pipelineBlock(t, 512, 0)
	if got := testing.AllocsPerRun(4, func() { s.AppendBlock(blk) }); got != 0 {
		t.Fatalf("AppendBlock into a warm tail segment: %v allocs, want 0", got)
	}
}

// The store must not pin the blocks it is handed: pooled pipeline blocks
// are sized for 512 events + 32 KB however few they carry, so at the ~50
// events/batch of a paced stream retaining them would cost over 1 KB per
// event. Columns plus string bytes are ~95 B here.
func TestRetentionCompactAtLowRate(t *testing.T) {
	const total, perBlock = 60000, 50
	s := mustNew(t, Options{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for n := 0; n < total; n += perBlock {
		if _, err := s.AppendBlock(pipelineBlock(t, perBlock, n)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEvent := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / total
	t.Logf("live heap per retained event: %.0f B", perEvent)
	if perEvent >= 200 {
		t.Fatalf("store retains %.0f B/event, want < 200", perEvent)
	}
	if s.Len() != total {
		t.Fatalf("Len = %d", s.Len())
	}
}

// The retained window holds no pointers for the collector to trace, and a
// page read materializes the page alone: one []Event and one string.
func TestSincePageAllocations(t *testing.T) {
	s := warmStore(t)
	if got := testing.AllocsPerRun(10, func() { s.Since(4000, 1024) }); got > 2 {
		t.Fatalf("Since page of 1024 events: %v allocs, want <= 2", got)
	}
}

func BenchmarkStoreAppendBlock(b *testing.B) {
	for _, journal := range []bool{false, true} {
		name := "journal=off"
		opts := Options{}
		if journal {
			name = "journal=SyncEveryN"
			opts = Options{JournalPath: filepath.Join(b.TempDir(), "j.jsonl"), Sync: SyncEveryN}
		}
		b.Run(name, func(b *testing.B) {
			s, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			blk := pipelineBlock(b, 512, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AppendBlock(blk); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/512, "ns/event")
		})
	}
}

// BenchmarkStoreSmall is the cost of a store that stays tiny — iface,
// robinhood and an idle shard each hold one — and the reason a store's
// first segment grows on demand instead of being allocated whole.
func BenchmarkStoreSmall(b *testing.B) {
	evs := sampleEvents(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range evs {
			if _, err := s.Append(e); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
	}
}

var benchPage []events.Event

func BenchmarkStoreSincePage(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const stored = 200 * 512
	blk := pipelineBlock(b, 512, 0)
	for i := 0; i < stored/512; i++ {
		if _, err := s.AppendBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPage, _ = s.Since(uint64(i*1024%(stored-1024)), 1024)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/event")
}
