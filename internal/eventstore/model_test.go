package eventstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

// model is the reference the segment store is checked against: the retained
// window as a plain slice, the reported set as a high-water mark, and the
// journal as the list of records a reopen replays.
type model struct {
	evs                       []events.Event
	acked, next, base, stride uint64
	max                       int
	appended, purged, evicted uint64
	journal                   []events.Event // Path "" = a reported mark at Seq
}

func (m *model) append(e events.Event) {
	e.Seq = m.next
	m.next += m.stride
	m.evs = append(m.evs, e)
	m.journal = append(m.journal, e)
	m.appended++
}

// bound runs once per Append/AppendBlock call, as enforceBoundLocked does.
func (m *model) bound() {
	for m.max > 0 && len(m.evs) > m.max {
		if m.evs[0].Seq <= m.acked {
			m.purged++
		} else {
			m.evicted++
		}
		m.evs = m.evs[1:]
	}
}

func (m *model) ack(seq uint64, journal bool) {
	if journal {
		m.journal = append(m.journal, events.Event{Seq: seq})
	}
	if last := m.next - m.stride; seq > last {
		seq = last
	}
	if seq > m.acked {
		m.acked = seq
	}
}

func (m *model) reported() int {
	n := 0
	for n < len(m.evs) && m.evs[n].Seq <= m.acked {
		n++
	}
	return n
}

func (m *model) purge() int {
	n := m.reported()
	m.evs = m.evs[n:]
	m.purged += uint64(n)
	return n
}

// compact rewrites the journal the way CompactJournal does: the retained
// window, then the highest retained reported seq if there is one.
func (m *model) compact() {
	m.journal = append([]events.Event(nil), m.evs...)
	if n := m.reported(); n > 0 {
		m.journal = append(m.journal, events.Event{Seq: m.evs[n-1].Seq})
	}
}

// reopen replays the journal: purged history returns, counters restart.
func (m *model) reopen() {
	records := m.journal
	*m = model{next: m.base + m.stride, base: m.base, stride: m.stride, max: m.max}
	for _, r := range records {
		if r.Path == "" {
			m.ack(r.Seq, true)
			continue
		}
		m.evs = append(m.evs, r)
		m.journal = append(m.journal, r)
		m.next = r.Seq + m.stride
		m.appended++
	}
}

func (m *model) page(from, max int) []events.Event {
	out := m.evs[from:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

func (m *model) since(seq uint64, max int) []events.Event {
	i := 0
	for i < len(m.evs) && m.evs[i].Seq <= seq {
		i++
	}
	return m.page(i, max)
}

func (m *model) sinceTime(t time.Time, max int) []events.Event {
	i := 0
	for i < len(m.evs) && m.evs[i].Time.Before(t) {
		i++
	}
	return m.page(i, max)
}

func sameEvents(t *testing.T, what string, got, want []events.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, model has %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Path != w.Path || g.OldPath != w.OldPath || g.Root != w.Root ||
			g.Source != w.Source || g.Op != w.Op || g.Cookie != w.Cookie || !g.Time.Equal(w.Time) {
			t.Fatalf("%s: event %d = %+v, model has %+v", what, i, g, w)
		}
	}
}

// TestStoreMatchesModel drives the segment store and the model through the
// same seeded random schedule and compares them after every step, with
// segments shrunk to 4 rows so that appends, acks, purges, evictions and
// page reads cross segment boundaries (and blocks longer than a segment
// occur) constantly.
func TestStoreMatchesModel(t *testing.T) {
	defer func(n int) { segEvents = n }(segEvents)
	segEvents = 4
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"unbounded", Options{}},
		{"bounded", Options{MaxEvents: 23}},
		{"bounded-lane", Options{MaxEvents: 9, seqStride: 4, seqOffset: 2}},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				checkAgainstModel(t, cfg.opts, seed)
			})
		}
	}
}

func checkAgainstModel(t *testing.T, opts Options, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	opts.JournalPath = filepath.Join(t.TempDir(), "j.journal")
	opts.Sync = SyncAlways
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	opts.normalize()
	m := &model{next: opts.seqOffset + opts.seqStride, base: opts.seqOffset, stride: opts.seqStride, max: opts.MaxEvents}

	clock := int64(1000)
	nextEvent := func() events.Event {
		clock += int64(rng.Intn(3)) // non-decreasing, with ties
		e := events.Event{
			Root: "/mnt/lustre", Op: events.Op(1 << rng.Intn(8)), Path: fmt.Sprintf("/d%d/f%d", rng.Intn(9), clock),
			Time: time.Unix(0, clock), Source: "mdt0",
		}
		if rng.Intn(4) == 0 {
			e.OldPath, e.Cookie = e.Path+".old", uint32(clock)
		}
		return e
	}
	blk := events.NewBlock(0, 0)

	for step := 0; step < 400; step++ {
		what := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(20); {
		case op < 5:
			e := nextEvent()
			seq, err := s.Append(e)
			if err != nil {
				t.Fatal(err)
			}
			if seq != m.next {
				t.Fatalf("%s: Append assigned %d, model %d", what, seq, m.next)
			}
			m.append(e)
			m.bound()
		case op < 11:
			// One block refilled for every append: the store must have
			// copied the previous contents out.
			blk.Reset()
			for i, n := 0, 1+rng.Intn(11); i < n; i++ {
				e := nextEvent()
				if err := blk.AppendEvent(e); err != nil {
					t.Fatal(err)
				}
				m.append(e)
			}
			m.bound()
			last, err := s.AppendBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.next - m.stride; last != want || blk.Seq(blk.Len()-1) != want {
				t.Fatalf("%s: AppendBlock returned %d (block says %d), model %d", what, last, blk.Seq(blk.Len()-1), want)
			}
		case op < 14:
			seq := uint64(rng.Int63n(int64(m.next + 3*m.stride)))
			if err := s.MarkReported(seq); err != nil {
				t.Fatal(err)
			}
			m.ack(seq, true)
		case op < 16:
			n, err := s.Purge()
			if err != nil {
				t.Fatal(err)
			}
			if want := m.purge(); n != want {
				t.Fatalf("%s: Purge removed %d, model %d", what, n, want)
			}
		case op < 17:
			if err := s.CompactJournal(); err != nil {
				t.Fatal(err)
			}
			m.compact()
		case op < 18:
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(opts); err != nil {
				t.Fatal(err)
			}
			m.reopen()
		}

		want := Stats{Retained: len(m.evs), Reported: m.reported(), Appended: m.appended, Purged: m.purged, Evicted: m.evicted, NextSeq: m.next}
		if got := s.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v, model %+v", what, got, want)
		}
		seq, max := uint64(rng.Int63n(int64(m.next+m.stride))), rng.Intn(7)
		got, err := s.Since(seq, max)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, fmt.Sprintf("%s: Since(%d,%d)", what, seq, max), got, m.since(seq, max))
		at := time.Unix(0, 1000+rng.Int63n(clock-1000+2))
		if got, err = s.SinceTime(at, max); err != nil {
			t.Fatal(err)
		}
		sameEvents(t, fmt.Sprintf("%s: SinceTime(%d,%d)", what, at.UnixNano(), max), got, m.sinceTime(at, max))
		if step%16 == 0 {
			if got, err = s.Since(0, 0); err != nil {
				t.Fatal(err)
			}
			sameEvents(t, what+": Since(0,0)", got, m.evs)
		}
	}
}

// The store copies: a block that is Reset and refilled after AppendBlock —
// what the benchmark's ingest and every pooled pipeline block do — must
// not change what was stored.
func TestAppendBlockDoesNotAliasCaller(t *testing.T) {
	s := mustNew(t, Options{})
	first := sampleEvents(10)
	blk := blockOf(t, first)
	if _, err := s.AppendBlock(blk); err != nil {
		t.Fatal(err)
	}
	blk.Reset()
	for i := 0; i < 10; i++ {
		if err := blk.AppendEvent(events.Event{Root: "/XXXX", Op: events.OpDelete, Path: "/overwritten", Time: time.Unix(9, 9), Source: "zzzz"}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		first[i].Seq = uint64(i + 1)
	}
	sameEvents(t, "after the caller refilled its block", got, first)
}
