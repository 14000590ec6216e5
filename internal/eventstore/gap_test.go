package eventstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

// seqRecord is a hand-built 'E' record holding one event at each of seqs,
// each recorded at ten times its seq in nanoseconds.
func seqRecord(t testing.TB, seqs ...uint64) []byte {
	t.Helper()
	blk := events.NewBlock(len(seqs), 0)
	for _, seq := range seqs {
		e := mkEvent(fmt.Sprintf("/gap/f%d", seq), int64(seq)*10)
		e.Seq = seq
		if err := blk.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return sealRecord(blk.AppendRowsTo(newRecord(nil, kindEvents), 0, blk.Len()))
}

// markRecord is a hand-built 'R' record: reported through seq.
func markRecord(seq uint64) []byte {
	return sealRecord(binary.LittleEndian.AppendUint64(newRecord(nil, kindReported), seq))
}

// handBuilt returns a writer of a journal made of the given records.
func handBuilt(records ...func(testing.TB) []byte) func(t *testing.T, opts Options) {
	return func(t *testing.T, opts Options) {
		data := []byte(journalMagic)
		for _, rec := range records {
			data = append(data, rec(t)...)
		}
		if err := os.WriteFile(opts.JournalPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func seqs(s ...uint64) func(testing.TB) []byte {
	return func(t testing.TB) []byte { return seqRecord(t, s...) }
}

func mark(seq uint64) func(testing.TB) []byte {
	return func(testing.TB) []byte { return markRecord(seq) }
}

// lostToWriteError writes a journal through a store whose journal fails
// after its first record — the TestJournalWriteErrorIsLatched setup — and
// then works again: a writer reopened on the file, as after the disk came
// back. The journal holds seq 1, then seqs from 14 on; 2 to 13 and the mark
// between were stored in memory only.
func lostToWriteError(t *testing.T, opts Options) {
	quietLogs(t)
	opts.Sync = SyncAlways
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	clock := int64(0)
	block := func(n int) *events.Block {
		blk := events.NewBlock(n, 0)
		for range n {
			clock++
			if err := blk.AppendEvent(mkEvent(fmt.Sprintf("/lost/f%d", clock), clock)); err != nil {
				t.Fatal(err)
			}
		}
		return blk
	}
	if _, err := s.AppendBlock(block(1)); err != nil {
		t.Fatal(err)
	}
	s.jw.f.Close() // the disk goes away under the store
	for range 3 {
		if _, err := s.AppendBlock(block(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MarkReported(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync after the journal failed = nil, want the latched error")
	}
	if s.jw, err = openJournalWriter(opts.JournalPath); err != nil {
		t.Fatal(err)
	}
	s.jerr = nil
	for _, n := range []int{5, 1, 3} {
		if _, err := s.AppendBlock(block(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MarkReported(15); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// modelOf replays the journal at opts.JournalPath into the reference model,
// as a reopen does.
func modelOf(t *testing.T, opts Options) *model {
	t.Helper()
	opts.normalize()
	m := &model{base: opts.seqOffset, stride: opts.seqStride}
	if _, err := ReadJournal(opts.JournalPath, func(blk *events.Block, reported uint64) error {
		if blk == nil {
			m.journal = append(m.journal, events.Event{Seq: reported})
		} else {
			m.journal = blk.AppendEventsTo(m.journal)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m.reopen()
	return m
}

// A journal whose seqs break — records lost to a latched write error, or a
// record built by hand — reopens into segments that each hold one seq run,
// split at every break, and reads as the reference model of the same
// journal does: Since, SinceTime, countAfter, the Pager's pages, LastSeq,
// the next seq assigned, and an ack and purge that land inside a gap.
func TestOpenSplitsSeqGaps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		write func(t *testing.T, opts Options)
	}{
		{"lost-to-write-error", Options{}, lostToWriteError},
		{"hand-built", Options{}, handBuilt(seqs(1, 2), seqs(5, 6, 9), mark(7), seqs(10, 12))},
		{"hand-built-lane", Options{seqStride: 4, seqOffset: 2}, handBuilt(seqs(6), seqs(10, 14, 26, 30, 34, 46), mark(30), seqs(58))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.JournalPath = filepath.Join(t.TempDir(), "journal")
			tc.write(t, opts)
			m := modelOf(t, opts)
			for round := range 2 {
				s, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("open %d", round)
				checkSplit(t, what, s, m)
				checkGapStore(t, what, s, m)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				m.reopen()
			}
		})
	}
}

// checkSplit checks that a reopened store holds the model's events in
// order, in at least as many segments as they make runs at the model's
// stride.
func checkSplit(t *testing.T, what string, s *Store, m *model) {
	t.Helper()
	runs := 0
	for i, e := range m.evs {
		if i == 0 || e.Seq != m.evs[i-1].Seq+m.stride {
			runs++
		}
	}
	if k := checkRows(t, what, s, m); k != len(m.evs) || len(s.segs) < runs {
		t.Fatalf("%s: %d rows in %d segments, model has %d events in %d runs", what, k, len(s.segs), len(m.evs), runs)
	}
}

// checkRows checks that the store's segment rows hold the model's seqs, in
// order, and returns how many rows they hold.
func checkRows(t *testing.T, what string, s *Store, m *model) int {
	t.Helper()
	k := 0
	for _, seg := range s.segs {
		for i := range seg.Len() {
			if k >= len(m.evs) || seg.Seq(i) != m.evs[k].Seq {
				t.Fatalf("%s: segment row %d holds seq %d, model event %d does not", what, i, seg.Seq(i), k)
			}
			k++
		}
	}
	return k
}

// checkGapStore compares a store reopened over seq gaps with the model,
// then appends, acks into a gap and purges, comparing again.
func checkGapStore(t *testing.T, what string, s *Store, m *model) {
	t.Helper()
	if k := checkRows(t, what, s, m); k != len(m.evs) {
		t.Fatalf("%s: %d rows in %d segments, model has %d events", what, k, len(s.segs), len(m.evs))
	}
	compare := func(what string) {
		t.Helper()
		want := Stats{Retained: len(m.evs), Reported: m.reported(), Appended: m.appended, Purged: m.purged, Evicted: m.evicted, NextSeq: m.next}
		if got := s.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v, model %+v", what, got, want)
		}
		if got, want := s.LastSeq(), m.next-m.stride; got != want {
			t.Fatalf("%s: LastSeq = %d, model %d", what, got, want)
		}
		p := NewPager()
		for seq := uint64(0); seq <= m.next+m.stride; seq++ {
			for _, max := range []int{0, 1, 2, 3} {
				got, err := s.Since(seq, max)
				if err != nil {
					t.Fatal(err)
				}
				sameEvents(t, fmt.Sprintf("%s: Since(%d,%d)", what, seq, max), got, m.since(seq, max))
			}
			if got, want := s.countAfter(seq), len(m.since(seq, 0)); got != want {
				t.Fatalf("%s: countAfter(%d) = %d, model %d", what, seq, got, want)
			}
			for _, max := range []int{1, 2, 5} {
				p.Start([]uint64{seq})
				var paged []events.Event
				for {
					page, err := s.NextPage(p, max)
					if err != nil {
						t.Fatal(err)
					}
					if page == nil {
						break
					}
					blk, err := events.DecodeBlock(page)
					if err != nil {
						t.Fatal(err)
					}
					paged = blk.AppendEventsTo(paged)
				}
				sameEvents(t, fmt.Sprintf("%s: pages after %d, %d a page", what, seq, max), paged, m.since(seq, 0))
			}
		}
		for _, e := range m.evs {
			for _, at := range []time.Duration{-1, 0, 1} {
				tm := e.Time.Add(at)
				got, err := s.SinceTime(tm, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameEvents(t, fmt.Sprintf("%s: SinceTime(%d)", what, tm.UnixNano()), got, m.sinceTime(tm, 0))
			}
		}
	}
	compare(what)

	last := m.evs[len(m.evs)-1].Time.UnixNano()
	e := mkEvent("/after/one", last+1)
	seq, err := s.Append(e)
	if err != nil {
		t.Fatal(err)
	}
	if seq != m.next {
		t.Fatalf("%s: Append assigned seq %d, model %d", what, seq, m.next)
	}
	m.append(e)
	blk := events.NewBlock(2, 0)
	for i := range 2 {
		e := mkEvent(fmt.Sprintf("/after/block%d", i), last+2)
		if err := blk.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
		m.append(e)
	}
	if seq, err = s.AppendBlock(blk); err != nil {
		t.Fatal(err)
	}
	if want := m.next - m.stride; seq != want {
		t.Fatalf("%s: AppendBlock returned seq %d, model %d", what, seq, want)
	}
	compare(what + ", appended")

	// An ack that lands in the first gap, then a purge through it.
	gap := m.evs[0].Seq
	for i := 1; i < len(m.evs) && m.evs[i].Seq == m.evs[i-1].Seq+m.stride; i++ {
		gap = m.evs[i].Seq
	}
	if err := s.MarkReported(gap + 1); err != nil {
		t.Fatal(err)
	}
	m.ack(gap+1, true)
	n, err := s.Purge()
	if err != nil {
		t.Fatal(err)
	}
	if want := m.purge(); n != want {
		t.Fatalf("%s: Purge removed %d, model %d", what, n, want)
	}
	compare(what + ", purged")
}

// A journal written under one stride and reopened under another — an
// engine restarted with another partition count reopens each shard's
// journal so — breaks the store's stride at every row. Its runs take the
// journal's own step after the first break, so it reopens into a few
// segments, not one per row, and reads as the model does.
func TestOpenUnderAnotherStride(t *testing.T) {
	for _, tc := range []struct {
		name        string
		wrote, opts Options
	}{
		{"2-to-3", Options{seqStride: 2}, Options{seqStride: 3}},
		{"4-to-2", Options{seqStride: 4, seqOffset: 1}, Options{seqStride: 2, seqOffset: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.wrote.JournalPath = filepath.Join(t.TempDir(), "journal")
			tc.opts.JournalPath = tc.wrote.JournalPath
			w, err := New(tc.wrote)
			if err != nil {
				t.Fatal(err)
			}
			for i := range 40 {
				if i%5 == 0 { // one-row records among the batches
					if _, err := w.Append(mkEvent(fmt.Sprintf("/stride/one%d", i), int64(i))); err != nil {
						t.Fatal(err)
					}
					continue
				}
				blk := events.NewBlock(3, 0)
				for j := range 3 {
					if err := blk.AppendEvent(mkEvent(fmt.Sprintf("/stride/f%d.%d", i, j), int64(i))); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := w.AppendBlock(blk); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			m := modelOf(t, tc.opts)
			s, err := Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// The first row breaks the store's stride; every segment after
			// the one holding it runs at the journal's.
			for i, seg := range s.segs[1:] {
				if seg.SeqStride() != tc.wrote.seqStride {
					t.Fatalf("segment %d of %d runs at stride %d, the journal's is %d", i+1, len(s.segs), seg.SeqStride(), tc.wrote.seqStride)
				}
			}
			checkGapStore(t, "reopened", s, m)
		})
	}
}

// Open makes a segment for each run it finds, at the run's size, and grows
// a run's segments from there: a journal whose runs keep breaking costs a
// few hundred bytes a row, however the breaks fall. Sized for the rows
// still to read at each break instead, a 4 096-row record breaking at
// every row asked for ≈ 8 million rows of columns (k²/2), and one-row
// records breaking every other row for 8 192 rows at each break.
func TestOpenBrokenRunsAllocation(t *testing.T) {
	const rows = 4096
	steps := func(pattern ...uint64) []uint64 {
		seqs := make([]uint64, rows)
		for i := range seqs {
			seqs[i] = 1
			if i > 0 {
				seqs[i] = seqs[i-1] + pattern[i%len(pattern)]
			}
		}
		return seqs
	}
	for _, tc := range []struct {
		name    string
		seqs    []uint64
		records int // rows a record
	}{
		{"one-record-steps-1-2", steps(1, 2), rows},
		{"one-row-records-steps-1-1-3-3", steps(1, 1, 3, 3), 1},
		{"512-row-records-steps-1-1-3-3", steps(1, 1, 3, 3), 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jp := filepath.Join(t.TempDir(), "journal")
			data := []byte(journalMagic)
			for lo := 0; lo < rows; lo += tc.records {
				data = append(data, seqRecord(t, tc.seqs[lo:lo+tc.records]...)...)
			}
			if err := os.WriteFile(jp, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Open(Options{JournalPath: jp})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Stats().Retained; got != rows {
				t.Fatalf("reopened store holds %d events, want %d", got, rows)
			}
			perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows
			t.Logf("%d segments; Open allocated %.0f B a row from a %d-byte journal", len(s.segs), perRow, len(data))
			if perRow > 1024 {
				t.Fatalf("Open allocated %.0f B a row, want at most 1 KiB", perRow)
			}
		})
	}
}
