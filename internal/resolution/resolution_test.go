package resolution

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/simdsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/telemetry"
	"fsmonitor/internal/vfs"
)

// run drives p.Run over a closed-when-done source and returns every batch
// the sink saw, copied (Run reuses its slice).
func run(t *testing.T, p *Processor) [][]events.Event {
	t.Helper()
	var out [][]events.Event
	err := p.Run(func(b []events.Event) error {
		out = append(out, append([]events.Event(nil), b...))
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	return out
}

func flatten(batches [][]events.Event) []events.Event {
	var out []events.Event
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// feed returns a closed channel holding evs.
func feed(evs ...events.Event) <-chan events.Event {
	src := make(chan events.Event, len(evs))
	for _, e := range evs {
		src <- e
	}
	close(src)
	return src
}

func creates(n int) []events.Event {
	evs := make([]events.Event, n)
	for i := range evs {
		evs[i] = events.Event{Root: "/r", Op: events.OpCreate, Path: "/f", Cookie: uint32(i + 1000)}
	}
	return evs
}

func TestBatchBySize(t *testing.T) {
	p := New(feed(creates(25)...), 10)
	batches := run(t, p)
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	if len(batches[0]) != 10 || len(batches[1]) != 10 || len(batches[2]) != 5 {
		t.Errorf("sizes = %d,%d,%d", len(batches[0]), len(batches[1]), len(batches[2]))
	}
	if st := p.Stats(); st.Processed != 25 || st.Batches != 3 {
		t.Errorf("stats = %+v", st)
	}
}

// slowEvent returns an event whose normalization outlasts d: path.Clean
// walks a path long enough to take that long.
func slowEvent(d time.Duration) events.Event {
	for p := strings.Repeat("/d/.", 1<<12); ; p += p {
		e := events.Event{Root: "/r", Op: events.OpCreate, Path: p}
		start := time.Now()
		events.Normalize(e)
		if time.Since(start) > d {
			return e
		}
	}
}

// TestBatchFlushesPartialOnInterval: two events far below the batch size
// reach the sink together once the interval passes, while the source stays
// open.
func TestBatchFlushesPartialOnInterval(t *testing.T) {
	src := make(chan events.Event)
	p := New(src, 1000)
	got := make(chan int, 1)
	done := make(chan error, 1)
	go func() {
		done <- p.Run(func(b []events.Event) error {
			select {
			case got <- len(b):
			default:
			}
			return nil
		})
	}()
	src <- events.Event{Root: "/r", Op: events.OpCreate, Path: "/a"}
	src <- events.Event{Root: "/r", Op: events.OpCreate, Path: "/b"}
	select {
	case n := <-got:
		if n != 2 {
			t.Fatalf("interval flush delivered %d events, want 2", n)
		}
	case <-time.After(time.Second):
		t.Fatal("partial batch never flushed on interval")
	}
	close(src)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBatchByInterval: a partial batch is handed over once
// pipeline.DefaultBatchInterval has passed since its first event, while the
// source stays open. In each round the batch before it fills up while its
// interval timer fires (its second event takes longer than the interval to
// normalize); the tick that leaves must not cut the next batch's interval
// short. Which of a stale tick and the next event Run's select takes first
// is random, so there are several rounds.
func TestBatchByInterval(t *testing.T) {
	slow := slowEvent(2 * pipeline.DefaultBatchInterval)
	// The next event waits in src while Run is in the sink, so Run's
	// select finds it beside any stale tick.
	src := make(chan events.Event, 1)
	p := New(src, 2)
	got := make(chan int)
	done := make(chan error, 1)
	go func() {
		done <- p.Run(func(b []events.Event) error { got <- len(b); return nil })
	}()
	recv := func() int {
		select {
		case n := <-got:
			return n
		case <-time.After(2 * time.Second):
			t.Fatal("partial batch never flushed on interval")
			return 0
		}
	}
	e := events.Event{Root: "/r", Op: events.OpCreate, Path: "/f"}
	for round := 0; round < 8; round++ {
		src <- e
		src <- slow
		src <- e
		if n := recv(); n != 2 {
			t.Fatalf("round %d: size flush delivered %d events, want 2", round, n)
		}
		start := time.Now()
		if n := recv(); n != 1 {
			t.Fatalf("round %d: interval flush delivered %d events, want 1", round, n)
		}
		if waited := time.Since(start); waited < pipeline.DefaultBatchInterval/2 {
			t.Fatalf("round %d: partial batch flushed after %v, before its interval", round, waited)
		}
	}
	close(src)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNormalization(t *testing.T) {
	evs := flatten(run(t, New(feed(events.Event{Root: "/mnt/lustre", Op: events.OpCreate, Path: "/mnt/lustre/dir/f.txt"}), 0)))
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Path != "/dir/f.txt" {
		t.Errorf("path = %q", evs[0].Path)
	}
}

func TestRenamePairing(t *testing.T) {
	p := New(feed(
		events.Event{Root: "/r", Op: events.OpMovedFrom, Path: "/a", Cookie: 7},
		events.Event{Root: "/r", Op: events.OpMovedTo, Path: "/b", Cookie: 7},
	), 0)
	evs := flatten(run(t, p))
	if len(evs) != 2 {
		t.Fatalf("events = %v", evs)
	}
	if evs[1].OldPath != "/a" {
		t.Errorf("OldPath = %q", evs[1].OldPath)
	}
	if st := p.Stats(); st.RenamesPaired != 1 {
		t.Errorf("paired = %d", st.RenamesPaired)
	}
}

func TestUncorrelatedCookies(t *testing.T) {
	evs := flatten(run(t, New(feed(events.Event{Root: "/r", Op: events.OpMovedTo, Path: "/b", Cookie: 99}), 0)))
	if evs[0].OldPath != "" {
		t.Errorf("OldPath = %q for unmatched cookie", evs[0].OldPath)
	}
}

func TestOrderPreserved(t *testing.T) {
	evs := flatten(run(t, New(feed(creates(100)...), 7)))
	if len(evs) != 100 {
		t.Fatalf("events = %d", len(evs))
	}
	for i, e := range evs {
		if e.Cookie != uint32(i+1000) {
			t.Fatalf("event %d out of order (cookie %d)", i, e.Cookie)
		}
	}
}

// TestSourceCloseDrains: closing the source hands over the partial batch.
func TestSourceCloseDrains(t *testing.T) {
	batches := run(t, New(feed(creates(10)...), 100))
	if len(batches) != 1 || len(batches[0]) != 10 {
		t.Errorf("drained %v batches, want one of 10 events", len(batches))
	}
}

// TestRunStopsOnSinkError: Run returns the sink's first error and reads no
// further.
func TestRunStopsOnSinkError(t *testing.T) {
	src := make(chan events.Event, 30)
	for _, e := range creates(30) {
		src <- e
	}
	close(src)
	boom := errors.New("store full")
	calls := 0
	err := New(src, 10).Run(func([]events.Event) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Errorf("sink called %d times after its error, want 1", calls)
	}
	if left := len(src); left != 20 {
		t.Errorf("Run read on past the error: %d events left, want 20", left)
	}
}

// TestBurstWhileSinkStalls: Run reads nothing while the sink is stalled, so
// the native watcher's queue (16 384 events) and the DSI channel are all
// that absorb a burst. With the default channel a 42 000-event burst must
// cause no native overflow and reach the sink whole once it resumes.
func TestBurstWhileSinkStalls(t *testing.T) {
	const files = 14000 // CREATE, MODIFY and CLOSE_WRITE each
	fs := vfs.New()
	if err := fs.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	d, err := simdsi.NewInotify(dsi.Config{Backend: fs, Root: "/data"})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var got, overflows atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- New(d.Events(), 0).Run(func(b []events.Event) error {
			<-release
			for _, e := range b {
				if e.Op.HasAny(events.OpOverflow) {
					overflows.Add(1)
				}
			}
			got.Add(int64(len(b)))
			return nil
		})
	}()
	// settle waits for the native queue to move into the channel, so what
	// is measured is the room behind the watcher, not how fast its reader
	// is scheduled.
	settle := func() {
		for last, stable := -1, 0; stable < 5; time.Sleep(10 * time.Millisecond) {
			if n := len(d.Events()); n == last {
				stable++
			} else {
				last, stable = n, 0
			}
		}
	}
	for i := 0; i < files; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/data/f%d", i), 1); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			settle()
		}
	}
	settle()
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < 3*files && overflows.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := overflows.Load(); n != 0 {
		t.Errorf("native queue overflowed %d times during a stalled-sink burst", n)
	}
	if n := got.Load(); n != 3*files {
		t.Errorf("delivered %d of %d events", n, 3*files)
	}
}

func TestTransformDelegates(t *testing.T) {
	s, err := Transform(events.Event{Root: "/r", Op: events.OpCreate, Path: "/f"}, events.FormatFSW)
	if err != nil || s == "" {
		t.Errorf("Transform = %q, %v", s, err)
	}
}

// TestSaturatedDSIChannelDegradesCore: the DSI channel is the public path's
// one queue, and its capacity is mirrored beside its depth, so a channel
// held at least 90 % full for K samples degrades the core tier.
func TestSaturatedDSIChannelDegradesCore(t *testing.T) {
	const k = 3
	src := make(chan events.Event, 10)
	p := New(src, 4) // never run: nothing drains the channel
	reg := telemetry.NewRegistry()
	p.RegisterTelemetry(reg, "fsmon.core.resolution")
	s := reg.StartSampler(time.Hour, 16) // driven by SampleNow below
	defer s.Close()
	h := telemetry.NewHealth(s, telemetry.HealthOptions{Windows: k})
	defer h.Close()
	core := func() telemetry.Status {
		for _, v := range h.Evaluate().Tiers {
			if v.Tier == "core" {
				return v.Status
			}
		}
		t.Fatal("no core tier verdict")
		return 0
	}

	for i := 0; i < 9; i++ {
		src <- events.Event{Path: fmt.Sprintf("/f%d", i)}
	}
	for i := 0; i < k; i++ {
		s.SampleNow()
	}
	if st := core(); st != telemetry.StatusDegraded {
		t.Fatalf("channel at 90%% for %d samples: core = %v, want degraded", k, st)
	}
	<-src
	s.SampleNow()
	if st := core(); st != telemetry.StatusOK {
		t.Fatalf("channel below 90%%: core = %v, want ok", st)
	}
}
