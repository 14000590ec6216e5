package eventstore

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

// pipelineBlock builds a block the size the pipeline pools hand out,
// carrying n events.
func pipelineBlock(t testing.TB, n, serial int) *events.Block {
	t.Helper()
	blk := events.NewBlock(512, 32<<10)
	for i := 0; i < n; i++ {
		e := events.Event{
			Root: "/mnt/lustre", Op: events.OpModify, Path: fmt.Sprintf("/dir%02d/file%04d", serial%64, (serial+i)%4096),
			Time: time.Unix(1_700_000_000, int64(serial+i)), Source: "mdt0",
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
			opts = Options{JournalPath: filepath.Join(b.TempDir(), "journal"), Sync: SyncEveryN}
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
