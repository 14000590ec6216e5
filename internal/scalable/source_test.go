package scalable

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/mount"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/telemetry"
)

// fakeDSI is a mounted backend a test feeds by hand: whatever it Emits is
// what the backend "captured".
type fakeDSI struct{ *dsi.Base }

func newFakeDSI(evs ...events.Event) *fakeDSI {
	f := &fakeDSI{dsi.NewBase("fake", 64)}
	for _, e := range evs {
		f.Emit(e)
	}
	return f
}

func (f *fakeDSI) Close() error { f.CloseBase(); return nil }

// closed reports whether Close ran (the event channel is closed and
// empty).
func (f *fakeDSI) closed() bool {
	select {
	case _, ok := <-f.Events():
		return !ok
	default:
		return false
	}
}

// heldDSI holds what it captures until Close — a backend that flushes a
// coalescing buffer as it detaches — so its channel is full at Close and
// nothing in it was readable before.
type heldDSI struct {
	*dsi.Base
	closed atomic.Bool
}

func (h *heldDSI) Events() <-chan events.Event {
	if !h.closed.Load() {
		return nil
	}
	return h.Base.Events()
}

func (h *heldDSI) Close() error {
	h.CloseBase()
	h.closed.Store(true)
	return nil
}

func fakeCreate(path string) events.Event {
	return events.Event{Root: "/src", Op: events.OpCreate, Path: path, Time: time.Unix(1700000000, 0).UTC(), Source: "fake"}
}

// TestMountCollectorGoldenBytes pins what a DSI-source collector puts on
// the wire. The digest was recorded at the commit before the separate
// per-mount collector type was folded into Collector, from that type
// itself, for this fixed three-event stream (untraced, one size-bounded
// batch, over TCP): the one collector publishes the same topic and bytes.
func TestMountCollectorGoldenBytes(t *testing.T) {
	base := time.Unix(1700000000, 0).UTC()
	col, err := NewCollector(CollectorOptions{
		Mount: MountSource{Prefix: "/gold", DSI: newFakeDSI(
			events.Event{Root: "/src", Op: events.OpCreate, Path: "/dir/a.txt", Time: base, Source: "fake"},
			events.Event{Root: "/src", Op: events.OpModify, Path: "/dir/a.txt", Time: base.Add(time.Millisecond), Source: "fake"},
			events.Event{Root: "/src", Op: events.OpMovedTo, Path: "/dir/b.txt", OldPath: "/dir/a.txt", Cookie: 7, Time: base.Add(2 * time.Millisecond), Source: "fake"},
		)},
		Endpoint:  "tcp://127.0.0.1:0",
		BatchSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	sub := msgq.NewSub()
	sub.Subscribe(TopicPrefix)
	if err := sub.Connect(col.Endpoint()); err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m, ok := sub.Recv(ctx)
	if !ok {
		t.Fatal("nothing published")
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", m.Topic)
	h.Write(m.Payload)
	const want = "a9ef463bb7d3587670144d1ccd7ba656d7646b770f46abb8ed9225580fbbeb54"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want || m.Topic != "events.mount.gold" || len(m.Payload) != 172 {
		t.Fatalf("published topic %q, %d bytes, digest %s; want events.mount.gold, 172 bytes, %s", m.Topic, len(m.Payload), got, want)
	}
	if st := col.Stats(); st.Mount != "gold" || st.RecordsRead != 3 || st.EventsPublished != 3 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDSICloseDrainsToEOF: closing a DSI-source collector reads the DSI's
// channel to its end before the stages drain, so every event the backend
// still buffered at Close is published — the audit's captured and
// published counts both equal what the DSI held.
func TestDSICloseDrainsToEOF(t *testing.T) {
	const n = 64
	h := &heldDSI{Base: dsi.NewBase("held", n)}
	for i := 0; i < n; i++ {
		h.Emit(fakeCreate(fmt.Sprintf("/f%02d", i)))
	}
	reg := telemetry.NewRegistry()
	m, err := Deploy(nil, DeployOptions{Mounts: []MountSource{{Prefix: "/held", DSI: h}}, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if s := reg.Audit().Snapshot(); s.Captured != n || s.Published != n {
		t.Errorf("audit = %+v, want %d captured and published", s, n)
	}
}

// TestMountsClusterRouted is the deployment only the one collector makes
// possible: mounted backends in front of a clustered tier. Events from two
// DSI sources are path-hash-routed to the partition owners, a consumer sees
// every event exactly once with gap-free sequence lanes, and the
// conservation audit balances to zero.
func TestMountsClusterRouted(t *testing.T) { testMountsRouted(t, 2) }

// TestMountsSplitAtSource is the same deployment in front of a classic
// 4-partition aggregator: a mount has no MDT to key a partition on, so its
// collector cuts each batch by path hash at the source, as a clustered one
// does, and the lanes come out the same.
func TestMountsSplitAtSource(t *testing.T) { testMountsRouted(t, 0) }

func testMountsRouted(t *testing.T, nodes int) {
	const parts, perMount = 4, 30
	reg := telemetry.NewRegistry()
	a, b := newFakeDSI(), newFakeDSI()
	m, err := Deploy(nil, DeployOptions{
		Mounts:          []MountSource{{Prefix: "/a", DSI: a}, {Prefix: "/b", DSI: b}},
		ClusterNodes:    nodes,
		StorePartitions: parts,
		Store:           eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
		Telemetry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(m.Nodes) != nodes || len(m.Collectors) != 2 {
		t.Fatalf("deploy shape: %d nodes, %d collectors", len(m.Nodes), len(m.Collectors))
	}
	for i, c := range m.Collectors {
		if c.route.Parts() != parts {
			t.Fatalf("collector %d routes %d partitions, want %d", i, c.route.Parts(), parts)
		}
	}
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	want := map[string]bool{}
	for i := 0; i < perMount; i++ {
		p := fmt.Sprintf("/d%d/f%03d", i%5, i)
		a.Emit(fakeCreate(p))
		b.Emit(fakeCreate(p))
		want["/a"+p], want["/b"+p] = true, true
	}
	got := drainUntil(con, 2*perMount, 10*time.Second)
	lanes := map[uint64][]uint64{}
	for _, e := range got {
		if !want[e.Path] {
			t.Fatalf("unexpected or duplicate event %q (seq %d)", e.Path, e.Seq)
		}
		delete(want, e.Path)
		if e.Root != "/" {
			t.Errorf("event root = %q, want the unified /", e.Root)
		}
		if wantLane := uint64(eventstore.PartitionForPathBytes([]byte(e.Path), parts)); e.Seq%parts != wantLane {
			t.Errorf("%s stored on lane %d, its path hashes to %d", e.Path, e.Seq%parts, wantLane)
		}
		lanes[e.Seq%parts] = append(lanes[e.Seq%parts], e.Seq)
	}
	if len(want) != 0 {
		t.Fatalf("missing %d events: %v", len(want), want)
	}
	for lane, seqs := range lanes {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i, s := range seqs {
			if wantSeq := lane + uint64(i+1)*parts; s != wantSeq {
				t.Fatalf("lane %d: seq %d at position %d, want %d (%v)", lane, s, i, wantSeq, seqs)
			}
		}
	}

	waitBalanced(t, reg.Audit())
	if s := reg.Audit().Snapshot(); s.Captured != 2*perMount || s.Published != 2*perMount || s.Stored != 2*perMount || s.Violations != 0 {
		t.Errorf("audit = %+v, want %d captured = published = stored", s, 2*perMount)
	}
	for i, ns := range m.Stats().Nodes {
		if ns.Stored == 0 {
			t.Errorf("node %d stored nothing: the collectors did not route to partition owners", i)
		}
	}
}

// TestTwoMountDeploymentsOneProcess: endpoints are named from the
// *Monitor, so two live deployments of the same mount prefix coexist.
func TestTwoMountDeploymentsOneProcess(t *testing.T) {
	for i := 0; i < 2; i++ {
		m, err := Deploy(nil, DeployOptions{Mounts: []MountSource{{Prefix: "/local", DSI: newFakeDSI(fakeCreate("/f"))}}})
		if err != nil {
			t.Fatalf("deployment %d: %v", i, err)
		}
		defer m.Close()
		con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer con.Close()
		if got := drainUntil(con, 1, 5*time.Second); len(got) != 1 || got[0].Path != "/local/f" {
			t.Fatalf("deployment %d delivered %v", i, got)
		}
	}
}

// TestFailedDeployClosesEveryDSI: the deployment owns the DSIs it is
// passed, so whichever step fails — validation before any collector
// exists, the cluster tier, or a later mount's collector once earlier ones
// are running — every one of them ends up closed.
func TestFailedDeployClosesEveryDSI(t *testing.T) {
	for _, tc := range []struct {
		name   string
		second MountSource
		noDSI  bool
		opts   DeployOptions
		want   func(error) bool
	}{
		{"duplicate prefix", MountSource{Prefix: "/a/b/"}, false, DeployOptions{},
			func(err error) bool { return errors.Is(err, mount.ErrMounted) }},
		// Another prefix with the same name, a_b: one topic and one set of
		// fsmon.mount.a_b.* gauges, the second silently replacing the first.
		{"colliding names", MountSource{Prefix: "/a_b"}, false, DeployOptions{},
			func(err error) bool { return errors.Is(err, mount.ErrMounted) }},
		{"bad prefix", MountSource{Prefix: "relative"}, false, DeployOptions{},
			func(err error) bool { return errors.Is(err, mount.ErrBadPrefix) }},
		{"cluster tier fails to start", MountSource{Prefix: "/b"}, false, DeployOptions{ClusterNodes: 1, ClusterNodePrefix: "bad.id"},
			func(err error) bool { return strings.Contains(err.Error(), "ClusterNodePrefix") }},
		{"later collector fails", MountSource{Prefix: "/b"}, true, DeployOptions{},
			func(err error) bool { return strings.Contains(err.Error(), "Mount.DSI") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fakes := []*fakeDSI{newFakeDSI(), newFakeDSI(), newFakeDSI()}
			if !tc.noDSI {
				tc.second.DSI = fakes[1]
			}
			tc.opts.Mounts = []MountSource{{Prefix: "/a/b", DSI: fakes[0]}, tc.second, {Prefix: "/c", DSI: fakes[2]}}
			m, err := Deploy(nil, tc.opts)
			if err == nil {
				m.Close()
				t.Fatal("Deploy succeeded")
			}
			if !tc.want(err) {
				t.Errorf("Deploy error = %v", err)
			}
			for i, f := range fakes {
				if !f.closed() && !(tc.noDSI && i == 1) {
					t.Errorf("DSI %d left open by the failed Deploy", i)
				}
			}
		})
	}
}

// TestCollectorFollowsChangelog: an idle Changelog collector wakes on the
// next append, not on a poll. PollInterval is an hour, so a collector that
// slept between empty reads would hold the second record that long.
func TestCollectorFollowsChangelog(t *testing.T) {
	cluster := testCluster(1)
	cl := cluster.Client()
	col, err := NewCollector(CollectorOptions{
		Cluster: cluster, MDT: 0, CacheSize: 100,
		Endpoint:     "inproc://follow-col",
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	sub := msgq.NewSub()
	sub.Subscribe(TopicPrefix)
	if err := sub.Connect(col.Endpoint()); err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	recv := func(what string, within time.Duration) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), within)
		defer cancel()
		m, ok := sub.Recv(ctx)
		if !ok {
			t.Fatalf("%s: nothing published within %v", what, within)
		}
		m.Done()
	}
	if err := cl.Create("/first"); err != nil {
		t.Fatal(err)
	}
	recv("first record", 10*time.Second)
	// The collector has read the first record; its next read finds the
	// Changelog empty and it goes idle.
	time.Sleep(50 * time.Millisecond)
	if err := cl.Create("/second"); err != nil {
		t.Fatal(err)
	}
	recv("record appended while the collector idled", time.Second)
	if got := col.Stats().RecordsRead; got != 2 {
		t.Errorf("collector read %d records, want 2", got)
	}
}
