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
// when that is longer. A reopen from the journal holds the same events in
// segments of at most segEvents rows (or the record that opened one), each
// closed only when the next record did not fit it.
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
	// The journal's records in order, and the segment each lands in.
	type record struct{ rows, bytes int }
	var recs []record
	if _, err := ReadJournal(path, func(blk *events.Block, _ uint64) error {
		if blk != nil {
			recs = append(recs, record{blk.Len(), blk.StringBytes(0, blk.Len())})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	at := 0
	for k, seg := range r.segs {
		rows, _ := seg.Cap()
		first := recs[at]
		if most := max(first.rows, segEvents); rows > most {
			t.Fatalf("reopened segment %d made for %d rows, want at most %d", k, rows, most)
		}
		if k > 0 {
			prev := r.segs[k-1]
			prevRows, prevBytes := prev.Cap()
			if prev.Len()+first.rows <= prevRows && prev.StringBytes(0, prev.Len())+first.bytes <= prevBytes {
				t.Fatalf("reopened segment %d was closed with room for the %d rows and %d bytes that opened the next (%d of %d rows, %d of %d bytes)",
					k-1, first.rows, first.bytes, prev.Len(), prevRows, prev.StringBytes(0, prev.Len()), prevBytes)
			}
		}
		for held := 0; held < seg.Len(); at++ {
			held += recs[at].rows
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

// A hot row costs a segment its own columns and path: a 20-byte row record,
// its time, and 14 bytes of path. Its root and source are one dictionary
// entry the whole segment shares, and its seq is implied by the segment's
// first and stride. Repeating root and source in every row, a row cost
// ≈ 89 B; with a seq column, ≈ 52.
func TestHotRowSegmentBytes(t *testing.T) {
	if perRow := hotRowSegmentBytes(t, hotBlock(t, 10000)); perRow > 44 {
		t.Fatalf("a hot row costs its segment %.1f B, want at most 44", perRow)
	}
}

// BenchmarkStoreHotRows is TestHotRowSegmentBytes's measure as a metric,
// failing above the same 44 B.
func BenchmarkStoreHotRows(b *testing.B) {
	blk := hotBlock(b, 10000)
	b.ResetTimer()
	var perRow float64
	for i := 0; i < b.N; i++ {
		perRow = hotRowSegmentBytes(b, blk)
	}
	b.ReportMetric(perRow, "B/row")
	if perRow > 44 {
		b.Fatalf("a hot row costs its segment %.1f B, want at most 44", perRow)
	}
}

// A reload sizes its segments from the journal bytes still to read, so the
// segments it rebuilds from a 250 000-row journal in two partitions cost
// within 1 B a row of one segment made at its exact size, whether the
// journal holds 512-row batches (as a crash-recovery restart reads one) or
// one row a record (Store.Append, as core's ingest writes it). Segments
// doubling from the first record past the rows still to read would leave
// each partition's last one about two-thirds empty, ≈ 1.6 B a row more;
// segments sized at a one-row record's bytes per row would hold its root and
// source in every row, ≈ 17. The same holds when the engine is reopened
// under another partition count, whose stride every row of the journals
// breaks: sized for the rows still to read at each break, such a reload
// asked for about 8 192 rows a row.
func TestOpenSegmentsAtExactSize(t *testing.T) {
	const n = 250_000
	exact := hotRowSegmentBytes(t, hotBlock(t, 10000))
	blocks := func(w *Sharded, p int, blk *events.Block) error {
		_, err := w.AppendBlockPartition(p, blk)
		return err
	}
	appends := func(w *Sharded, p int, blk *events.Block) error {
		for i := 0; i < blk.Len(); i++ {
			if _, err := w.Partition(p).Append(blk.Event(i)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name          string
		parts, reopen int
		write         func(w *Sharded, p int, blk *events.Block) error
	}{
		{"blocks", 2, 2, blocks},
		{"appends", 2, 2, appends},
		{"blocks-reopened-in-3", 2, 3, blocks},
		{"appends-reopened-in-3", 2, 3, appends},
		{"blocks-4-reopened-in-2", 4, 2, blocks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, last := hotBlock(t, 512), hotBlock(t, n/tc.parts%512)
			opts := Options{JournalPath: filepath.Join(t.TempDir(), "journal")}
			w, err := NewSharded(tc.parts, opts)
			if err != nil {
				t.Fatal(err)
			}
			for at := 0; at < n/tc.parts; at += 512 {
				blk := full
				if n/tc.parts-at < 512 {
					blk = last
				}
				for p := range tc.parts {
					if err := tc.write(w, p, blk); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			r, err := OpenSharded(tc.reopen, opts)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			defer r.Close()
			kept := n / tc.parts * min(tc.parts, tc.reopen)
			if got := r.Stats().Retained; got != kept {
				t.Fatalf("reopened engine holds %d events, want %d", got, kept)
			}
			perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(kept)
			t.Logf("a reload keeps %.2f B a row; one segment at its exact size, %.2f", perRow, exact)
			if perRow > exact+1 {
				t.Fatalf("a reload keeps %.2f B a row, want within 1 B of a segment at its exact size (%.2f)", perRow, exact)
			}
		})
	}
}

// A live store fills every segment but its tail to segEvents rows, fed hot
// batches or single Appends: the fit check counts each batch's root and
// source, which a segment holding them does not copy again, and a segment
// sized without room for that closed one batch early (7 680 of 8 192 rows
// for 512-row batches).
func TestLiveSegmentsFill(t *testing.T) {
	blk := hotBlock(t, 512)
	for _, tc := range []struct {
		name   string
		append func(s *Store) error
	}{
		{"blocks", func(s *Store) error {
			_, err := s.AppendBlock(blk)
			return err
		}},
		{"appends", func(s *Store) error {
			for i := 0; i < blk.Len(); i++ {
				if _, err := s.Append(blk.Event(i)); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		s := mustNew(t, Options{})
		for range 3 * segEvents / blk.Len() {
			if err := tc.append(s); err != nil {
				t.Fatal(err)
			}
		}
		for k, seg := range s.segs[:len(s.segs)-1] {
			if rows, _ := seg.Cap(); seg.Len() != rows {
				t.Errorf("%s: segment %d holds %d of the %d rows it was made for", tc.name, k, seg.Len(), rows)
			}
		}
		s.Close()
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
