package iface

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
)

func newIface(t *testing.T, opts Options) *Interface {
	t.Helper()
	if opts.Store == nil {
		store, err := eventstore.New(eventstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = store
		t.Cleanup(func() { store.Close() })
	}
	i, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(i.Close)
	return i
}

func ev(path string, op events.Op) events.Event {
	return events.Event{Root: "/r", Op: op, Path: path, Time: time.Unix(1, 0)}
}

func recvBatch(t *testing.T, s *Subscription) []events.Event {
	t.Helper()
	select {
	case b := <-s.C():
		return b
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for batch")
		return nil
	}
}

func TestFilterMatch(t *testing.T) {
	cases := []struct {
		f    Filter
		e    events.Event
		want bool
	}{
		{Filter{}, ev("/a", events.OpCreate), true},
		{Filter{Recursive: true}, ev("/a/b/c", events.OpCreate), true},
		{Filter{}, ev("/a/b", events.OpCreate), false}, // non-recursive depth
		{Filter{Under: "/a"}, ev("/a/b", events.OpCreate), true},
		{Filter{Under: "/a"}, ev("/a/b/c", events.OpCreate), false},
		{Filter{Under: "/a", Recursive: true}, ev("/a/b/c", events.OpCreate), true},
		{Filter{Under: "/a"}, ev("/x", events.OpCreate), false},
		{Filter{Ops: events.OpDelete}, ev("/a", events.OpCreate), false},
		{Filter{Ops: events.OpDelete}, ev("/a", events.OpDelete), true},
		{Filter{Ops: events.OpDelete}, ev("/", events.OpOverflow), true}, // overflow always passes
	}
	for i, c := range cases {
		if got := c.f.Match(c.e); got != c.want {
			t.Errorf("case %d: Match(%+v, %v %s) = %v, want %v", i, c.f, c.e.Op, c.e.Path, got, c.want)
		}
	}
}

// Match at the root, pinned: a recursive filter with no op mask under "",
// "/" or "." passes everything (All, which the consumer uses to skip its
// filter loop), and every other combination keeps its old answers — down
// to the non-recursive "." passing depth 2 where "/" stops at depth 1.
func TestFilterMatchRoots(t *testing.T) {
	evs := []events.Event{
		ev("/a", events.OpCreate),
		ev("/a/b", events.OpCreate),
		ev("/a/b/c", events.OpCreate),
		ev("/a/b", events.OpDelete),
		ev("/", events.OpOverflow),
	}
	for _, c := range []struct {
		under     string
		ops       events.Op
		recursive bool
		want      string // Match per event of evs, T or F
	}{
		{"", 0, true, "TTTTT"},
		{"/", 0, true, "TTTTT"},
		{".", 0, true, "TTTTT"},
		{"", 0, false, "TFFFT"},
		{"/", 0, false, "TFFFT"},
		{".", 0, false, "TTFTT"},
		{"", events.OpDelete, true, "FFFTT"},
		{"/", events.OpDelete, true, "FFFTT"},
		{".", events.OpDelete, true, "FFFTT"},
		{"", events.OpDelete, false, "FFFFT"},
		{"/", events.OpDelete, false, "FFFFT"},
		{".", events.OpDelete, false, "FFFTT"},
	} {
		f := Filter{Under: c.under, Ops: c.ops, Recursive: c.recursive}
		got := ""
		for _, e := range evs {
			got += map[bool]string{true: "T", false: "F"}[f.Match(e)]
		}
		if got != c.want {
			t.Errorf("%+v: Match = %s, want %s", f, got, c.want)
		}
		if all := c.recursive && c.ops == 0; f.All() != all {
			t.Errorf("%+v: All = %v, want %v", f, f.All(), all)
		}
	}
}

func TestIngestDeliversToSubscribers(t *testing.T) {
	i := newIface(t, Options{AutoAck: true})
	sub, err := i.Subscribe(Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate), ev("/b", events.OpDelete)}); err != nil {
		t.Fatal(err)
	}
	b := recvBatch(t, sub)
	if len(b) != 2 {
		t.Fatalf("batch = %v", b)
	}
	if b[0].Seq != 1 || b[1].Seq != 2 {
		t.Errorf("seqs = %d, %d", b[0].Seq, b[1].Seq)
	}
}

func TestSubscriberFiltering(t *testing.T) {
	i := newIface(t, Options{})
	deletes, err := i.Subscribe(Filter{Ops: events.OpDelete, Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate), ev("/b", events.OpDelete)}); err != nil {
		t.Fatal(err)
	}
	b := recvBatch(t, deletes)
	if len(b) != 1 || b[0].Path != "/b" {
		t.Errorf("batch = %v", b)
	}
}

func TestReplaySince(t *testing.T) {
	i := newIface(t, Options{})
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate), ev("/b", events.OpCreate), ev("/c", events.OpCreate)}); err != nil {
		t.Fatal(err)
	}
	// A consumer that saw seq 1 reconnects.
	sub, err := i.Subscribe(Filter{Recursive: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := recvBatch(t, sub)
	if len(b) != 2 || b[0].Path != "/b" || b[1].Path != "/c" {
		t.Errorf("replay = %v", b)
	}
	// Then receives live events.
	if err := i.Ingest([]events.Event{ev("/d", events.OpCreate)}); err != nil {
		t.Fatal(err)
	}
	b = recvBatch(t, sub)
	if len(b) != 1 || b[0].Path != "/d" {
		t.Errorf("live after replay = %v", b)
	}
}

func TestAckAndPurge(t *testing.T) {
	store, err := eventstore.New(eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	i := newIface(t, Options{Store: store, AutoAck: false})
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate), ev("/b", events.OpCreate)}); err != nil {
		t.Fatal(err)
	}
	n, err := i.Purge()
	if err != nil || n != 0 {
		t.Errorf("purge before ack = %d, %v", n, err)
	}
	if err := i.Ack(1); err != nil {
		t.Fatal(err)
	}
	n, err = i.Purge()
	if err != nil || n != 1 {
		t.Errorf("purge after ack = %d, %v", n, err)
	}
	remaining, _ := i.Since(0, 0)
	if len(remaining) != 1 || remaining[0].Path != "/b" {
		t.Errorf("remaining = %v", remaining)
	}
}

// A subscription with no room is evicted, not skipped: its channel closes
// after what it holds, the eviction names the seq its feed is complete
// through, and a resubscription from that seq yields exactly the rest. A
// subscription that kept reading loses nothing.
func TestSlowSubscriberEvictedResumesBySeq(t *testing.T) {
	i := newIface(t, Options{SubscriberBuffer: 1})
	all := Filter{Recursive: true}
	slow, err := i.Subscribe(all, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := i.Subscribe(all, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fastGot []events.Event
	for k := 0; k < 5; k++ {
		if err := i.Ingest([]events.Event{ev(fmt.Sprintf("/f%d", k), events.OpCreate)}); err != nil {
			t.Fatal(err)
		}
		fastGot = append(fastGot, recvBatch(t, fast)...)
	}
	if first := recvBatch(t, slow); len(first) != 1 || first[0].Seq != 1 {
		t.Fatalf("the slow subscription's one batch = %+v, want seq 1", first)
	}
	if b, ok := <-slow.C(); ok {
		t.Fatalf("the slow subscription's channel still open, holding %+v", b)
	}
	if seq, evicted := slow.Evicted(); !evicted || seq != 1 {
		t.Fatalf("Evicted() = %d, %v; want 1, true", seq, evicted)
	}
	if seq, evicted := fast.Evicted(); evicted {
		t.Errorf("the reading subscription was evicted at seq %d", seq)
	}
	resumed, err := i.Subscribe(all, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := recvBatch(t, resumed); !risingFrom(got, 2, 5) {
		t.Errorf("resumed subscription got %+v, want seqs 2..5 once each", got)
	}
	if !risingFrom(fastGot, 1, 5) {
		t.Errorf("the reading subscription got %+v, want seqs 1..5 once each", fastGot)
	}
	if st := i.Stats(); st.Evicted != 1 {
		t.Errorf("Stats().Evicted = %d, want 1", st.Evicted)
	}
}

// risingFrom reports whether got holds exactly seqs from..to, in order.
func risingFrom(got []events.Event, from, to uint64) bool {
	if len(got) != int(to-from+1) {
		return false
	}
	for k, e := range got {
		if e.Seq != from+uint64(k) {
			return false
		}
	}
	return true
}

// Closing subscriptions, or the layer, while Ingest delivers never sends on
// a closed channel.
func TestIngestRacesClose(t *testing.T) {
	i := newIface(t, Options{})
	var subs []*Subscription
	for k := 0; k < 8; k++ {
		s, err := i.Subscribe(Filter{Recursive: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 500; k++ {
			if err := i.Ingest([]events.Event{ev("/a", events.OpCreate)}); err != nil {
				t.Error(err)
				return
			}
			if k == 0 {
				close(started)
			}
		}
	}()
	<-started
	for _, s := range subs[:7] {
		s.Close()
		time.Sleep(20 * time.Microsecond)
	}
	i.Close()
	<-done
}

// A subscription that resumes from a seq while Ingest runs gets every later
// event exactly once: the replay and the first live batch never overlap.
func TestReplayLiveBoundaryExactlyOnce(t *testing.T) {
	i := newIface(t, Options{})
	const batches, per = 300, 4
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		for k := 0; k < batches; k++ {
			batch := make([]events.Event, per)
			for j := range batch {
				batch[j] = ev("/f", events.OpCreate)
			}
			if err := i.Ingest(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	type resume struct {
		sub   *Subscription
		since uint64
	}
	var resumes []resume
	for last := uint64(0); last < batches*per-per; last = i.LastSeq() {
		since := last/2 + 1
		s, err := i.Subscribe(Filter{Recursive: true}, since)
		if err != nil {
			t.Fatal(err)
		}
		resumes = append(resumes, resume{s, since})
		time.Sleep(50 * time.Microsecond)
	}
	<-ingested
	for _, r := range resumes {
		var got []events.Event
		for len(r.sub.C()) > 0 {
			got = append(got, <-r.sub.C()...)
		}
		if !risingFrom(got, r.since+1, batches*per) {
			t.Fatalf("resumed after seq %d: got %d events, want each of seqs %d..%d once and in order", r.since, len(got), r.since+1, batches*per)
		}
	}
	t.Logf("%d resumes checked", len(resumes))
}

func TestSubscriptionClose(t *testing.T) {
	i := newIface(t, Options{})
	sub, err := i.Subscribe(Filter{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Error("channel open after close")
	}
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate)}); err != nil {
		t.Fatal(err)
	}
	if st := i.Stats(); st.Subscribers != 0 {
		t.Errorf("subscribers = %d", st.Subscribers)
	}
}

func TestSubscribeAfterCloseFails(t *testing.T) {
	i := newIface(t, Options{})
	i.Close()
	if _, err := i.Subscribe(Filter{}, 0); err == nil {
		t.Error("Subscribe after Close succeeded")
	}
}

func TestNewRequiresStore(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New without store succeeded")
	}
}

func TestEmptyIngestNoop(t *testing.T) {
	i := newIface(t, Options{})
	if err := i.Ingest(nil); err != nil {
		t.Fatal(err)
	}
	if i.LastSeq() != 0 {
		t.Error("LastSeq moved")
	}
}

// Property: a recursive filter accepts a superset of the non-recursive
// filter's events, and Under restrictions are monotonic (a deeper Under
// accepts a subset of its ancestor's events).
func TestFilterPropertiesQuick(t *testing.T) {
	segs := []string{"a", "b", "c"}
	f := func(depthSeed, underSeed uint8, opSeed uint32) bool {
		depth := int(depthSeed)%4 + 1
		p := ""
		for i := 0; i < depth; i++ {
			p += "/" + segs[(int(depthSeed)+i)%len(segs)]
		}
		e := events.Event{Path: p, Op: events.Op(opSeed) | events.OpCreate}
		under := "/" + segs[int(underSeed)%len(segs)]
		flat := Filter{Under: under}
		deep := Filter{Under: under, Recursive: true}
		if flat.Match(e) && !deep.Match(e) {
			return false // recursion must widen, never narrow
		}
		root := Filter{Recursive: true}
		if deep.Match(e) && !root.Match(e) {
			return false // a rooted filter accepts a subset of "/"
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
