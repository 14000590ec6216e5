package eventstore

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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

// Store segments are made once, whole: across random batch sizes, string
// lengths and single Appends, every segment keeps the row and byte capacity
// it was made with, the first holds the first batch and each next one twice
// the rows of the one before, up to segEvents — or the batch that opened it,
// when that is longer. A reopen from the journal lays the same segments out.
func TestSegmentsMadeOnce(t *testing.T) {
	defer func(n int) { segEvents = n }(segEvents)
	segEvents = 64
	rng := rand.New(rand.NewSource(1))
	path := filepath.Join(t.TempDir(), "j.journal")
	s := mustNew(t, Options{JournalPath: path})
	type size struct{ rows, bytes int }
	made := map[*events.Block]size{}
	nextEvent := func(i int) events.Event {
		e := ev(fmt.Sprintf("/d%d/%s", i, strings.Repeat("f", rng.Intn(40))))
		if rng.Intn(8) == 0 {
			e.OldPath = strings.Repeat("o", rng.Intn(600))
		}
		return e
	}
	for step := 0; step < 300; step++ {
		n := 1
		if rng.Intn(3) == 0 {
			if _, err := s.Append(nextEvent(step)); err != nil {
				t.Fatal(err)
			}
		} else {
			n = 1 + rng.Intn(segEvents*3/2)
			blk := events.NewBlock(n, 0)
			for i := 0; i < n; i++ {
				if err := blk.AppendEvent(nextEvent(step)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.AppendBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
		for k, seg := range s.segs {
			rows, bytes := seg.Cap()
			was, seen := made[seg]
			if !seen {
				want := n
				if k > 0 {
					want = max(n, min(2*made[s.segs[k-1]].rows, segEvents))
				}
				if rows != want {
					t.Fatalf("step %d: segment %d made for %d rows, want %d", step, k, rows, want)
				}
				made[seg] = size{rows, bytes}
			} else if was != (size{rows, bytes}) {
				t.Fatalf("step %d: segment %d made for %d rows and %d bytes now holds %d and %d", step, k, was.rows, was.bytes, rows, bytes)
			}
		}
	}
	want, _ := s.Since(0, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, _ := r.Since(0, 0); !slices.Equal(got, want) {
		t.Fatalf("reopened store holds %d events, want %d", len(got), len(want))
	}
	if len(r.segs) != len(s.segs) {
		t.Fatalf("reopened store has %d segments, the store had %d", len(r.segs), len(s.segs))
	}
	for k, seg := range r.segs {
		rows, bytes := seg.Cap()
		if was := made[s.segs[k]]; was != (size{rows, bytes}) || seg.Len() != s.segs[k].Len() {
			t.Fatalf("reopened segment %d: %d of %d rows, %d bytes; the store's: %d of %d rows, %d bytes",
				k, seg.Len(), rows, bytes, s.segs[k].Len(), was.rows, was.bytes)
		}
	}
}

// hotBlock builds n rows as the journey's hot cells carry them: one mount
// point, one source, the generator's hot file names (/hot/dNN/fNNNN).
func hotBlock(t testing.TB, n int) *events.Block {
	t.Helper()
	blk := events.NewBlock(n, 0)
	for i := 0; i < n; i++ {
		e := events.Event{Root: "/mnt/lustre", Op: events.OpModify, Path: fmt.Sprintf("/hot/d%02d/f%04d", i/64%64, i%4096),
			Time: time.Unix(1_700_000_000, int64(i)), Source: "lustre"}
		if err := blk.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return blk
}

// hotRowSegmentBytes is what storing blk's rows in one batch allocates per
// row: the one segment they open, made at their exact size.
func hotRowSegmentBytes(t testing.TB, blk *events.Block) float64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		s, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		s.Close()
	}
	return float64(least) / float64(blk.Len())
}

// A hot row costs a segment its own columns and path: its root and source
// are one dictionary entry the whole segment shares. Repeating them in
// every row, a row cost ≈ 89 B.
func TestHotRowSegmentBytes(t *testing.T) {
	if perRow := hotRowSegmentBytes(t, hotBlock(t, 10000)); perRow > 60 {
		t.Fatalf("a hot row costs its segment %.1f B, want at most 60", perRow)
	}
}

// BenchmarkStoreHotRows is TestHotRowSegmentBytes's measure as a metric,
// failing above the same 60 B.
func BenchmarkStoreHotRows(b *testing.B) {
	blk := hotBlock(b, 10000)
	b.ResetTimer()
	var perRow float64
	for i := 0; i < b.N; i++ {
		perRow = hotRowSegmentBytes(b, blk)
	}
	b.ReportMetric(perRow, "B/row")
	if perRow > 60 {
		b.Fatalf("a hot row costs its segment %.1f B, want at most 60", perRow)
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
// robinhood and an idle shard each hold one — and the reason segment rows
// start at the first batch's size and double, instead of 8 192 at once.
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
