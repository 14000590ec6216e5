package scalable

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
)

func testCluster(mds int) *lustre.Cluster {
	return lustre.NewCluster(lustre.Config{Name: "test", NumMDS: mds, NumOSS: 2, OSTsPerOSS: 2, OSTSizeGB: 1})
}

// drainConsumer reads batches until quiet.
func drainConsumer(c *Consumer, quiet time.Duration) []events.Event {
	var out []events.Event
	for {
		select {
		case b, ok := <-c.C():
			if !ok {
				return out
			}
			out = append(out, b...)
		case <-time.After(quiet):
			return out
		}
	}
}

func deploy(t *testing.T, cluster *lustre.Cluster, cache int) *Monitor {
	t.Helper()
	m, err := Deploy(cluster, DeployOptions{CacheSize: cache, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestEndToEndSingleMDS(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 100)
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	cl := cluster.Client()
	if err := cl.Create("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write("/hello.txt", 10); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	got := drainConsumer(con, 300*time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("events = %v", got)
	}
	wantOps := []events.Op{events.OpCreate, events.OpModify, events.OpDelete}
	for i, e := range got {
		if !e.Op.HasAny(wantOps[i]) {
			t.Errorf("event %d op = %v", i, e.Op)
		}
		if e.Path != "/hello.txt" {
			t.Errorf("event %d path = %q", i, e.Path)
		}
		if e.Root != "/mnt/lustre" {
			t.Errorf("event %d root = %q", i, e.Root)
		}
		if e.Seq == 0 {
			t.Errorf("event %d missing seq", i)
		}
	}
}

func TestDeleteResolvesViaCacheOrParent(t *testing.T) {
	for _, cache := range []int{0, 100} {
		t.Run(fmt.Sprintf("cache%d", cache), func(t *testing.T) {
			cluster := testCluster(1)
			m := deploy(t, cluster, cache)
			con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer con.Close()
			cl := cluster.Client()
			if err := cl.MkdirAll("/a/b"); err != nil {
				t.Fatal(err)
			}
			if err := cl.Create("/a/b/f.txt"); err != nil {
				t.Fatal(err)
			}
			if err := cl.Unlink("/a/b/f.txt"); err != nil {
				t.Fatal(err)
			}
			got := drainConsumer(con, 300*time.Millisecond)
			var del *events.Event
			for i := range got {
				if got[i].Op.HasAny(events.OpDelete) {
					del = &got[i]
				}
			}
			if del == nil || del.Path != "/a/b/f.txt" {
				t.Fatalf("delete event = %+v (all: %v)", del, got)
			}
		})
	}
}

func TestParentDirectoryRemoved(t *testing.T) {
	cluster := testCluster(1)
	// No cache, and process events only after everything is deleted, so
	// both target and parent FIDs are stale (Algorithm 1 line 41).
	cl := cluster.Client()
	if err := cl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	m := deploy(t, cluster, 0)
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	got := drainConsumer(con, 300*time.Millisecond)
	var sawMarker bool
	for _, e := range got {
		if e.Op.HasAny(events.OpDelete) && strings.Contains(e.Path, ParentDirectoryRemoved) {
			sawMarker = true
		}
	}
	if !sawMarker {
		t.Errorf("no ParentDirectoryRemoved in %v", got)
	}
}

func TestRenameProducesMovedPair(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 100)
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	cl := cluster.Client()
	if err := cl.Create("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rename("/hello.txt", "/hi.txt"); err != nil {
		t.Fatal(err)
	}
	got := drainConsumer(con, 300*time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("events = %v", got)
	}
	from, to := got[1], got[2]
	if !from.Op.HasAny(events.OpMovedFrom) || from.Path != "/hello.txt" {
		t.Errorf("from = %+v", from)
	}
	if !to.Op.HasAny(events.OpMovedTo) || to.Path != "/hi.txt" || to.OldPath != "/hello.txt" {
		t.Errorf("to = %+v", to)
	}
}

func TestMultiMDSAggregation(t *testing.T) {
	cluster := testCluster(4)
	m := deploy(t, cluster, 100)
	if len(m.Collectors) != 4 {
		t.Fatalf("collectors = %d", len(m.Collectors))
	}
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	cl := cluster.Client()
	const dirs = 32
	for i := 0; i < dirs; i++ {
		d := fmt.Sprintf("/dir%d", i)
		if err := cl.Mkdir(d); err != nil {
			t.Fatal(err)
		}
		if err := cl.Create(d + "/f"); err != nil {
			t.Fatal(err)
		}
	}
	got := drainConsumer(con, 500*time.Millisecond)
	if len(got) != dirs*2 {
		t.Fatalf("events = %d, want %d", len(got), dirs*2)
	}
	// Events were collected from every MDS.
	st := m.Stats()
	for i, cs := range st.Collectors {
		if cs.EventsPublished == 0 {
			t.Errorf("collector %d published nothing", i)
		}
	}
	if st.Aggregator.Stored != uint64(dirs*2) {
		t.Errorf("aggregator stored %d", st.Aggregator.Stored)
	}
}

func TestNoEventLossUnderBurst(t *testing.T) {
	cluster := testCluster(2)
	m := deploy(t, cluster, 500)
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	cl := cluster.Client()
	const n = 5000
	for i := 0; i < n; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	var got []events.Event
	for len(got) < n && time.Now().Before(deadline) {
		got = append(got, drainConsumer(con, 200*time.Millisecond)...)
	}
	if len(got) != n {
		t.Fatalf("received %d events, want %d (\"no overall loss of events\")", len(got), n)
	}
	// Every distinct file seen exactly once.
	seen := map[string]int{}
	for _, e := range got {
		seen[e.Path]++
	}
	if len(seen) != n {
		t.Errorf("distinct paths = %d", len(seen))
	}
}

func TestConsumerFilterClientSide(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 100)
	cl := cluster.Client()
	if err := cl.Mkdir("/keep"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/skip"); err != nil {
		t.Fatal(err)
	}
	con, err := m.NewConsumer(iface.Filter{Under: "/keep", Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	if err := cl.Create("/keep/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/skip/b"); err != nil {
		t.Fatal(err)
	}
	got := drainConsumer(con, 300*time.Millisecond)
	var sawKeep bool
	for _, e := range got {
		if e.Path == "/keep/a" {
			sawKeep = true
		}
		if e.Under("/skip") {
			t.Errorf("filter leaked %v", e)
		}
	}
	if !sawKeep {
		t.Errorf("missing /keep/a in %v", got)
	}
	// The unfiltered stream reached the consumer on the wire; only the
	// filtered part was delivered (client-side filtering, §IV-2). The two
	// mkdirs may instead arrive through recovery, which Delivered counts and
	// Received does not.
	if st := con.Stats(); st.Received <= st.Delivered-st.Recovered || st.Delivered != uint64(len(got)) {
		t.Errorf("stats = %+v, delivered %d", st, len(got))
	}
}

func TestConsumerFaultRecovery(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 100)
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Client()
	for i := 0; i < 5; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	got := drainConsumer(con, 300*time.Millisecond)
	if len(got) != 5 {
		t.Fatalf("first consumer got %d", len(got))
	}
	resume := con.LastSeq()
	con.Close() // consumer crashes

	// Events continue while the consumer is down.
	for i := 5; i < 10; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)

	// Restarted consumer replays from the reliable store.
	con2, err := m.NewConsumer(iface.Filter{Recursive: true}, resume)
	if err != nil {
		t.Fatal(err)
	}
	defer con2.Close()
	got2 := drainConsumer(con2, 400*time.Millisecond)
	if len(got2) != 5 {
		t.Fatalf("recovered %d events, want 5: %v", len(got2), got2)
	}
	for i, e := range got2 {
		want := fmt.Sprintf("/f%d", i+5)
		if e.Path != want {
			t.Errorf("recovered %d = %q, want %q", i, e.Path, want)
		}
	}
	if st := con2.Stats(); st.Recovered == 0 {
		t.Error("no events counted as recovered")
	}
}

func TestRecoveryOverTCP(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 100)
	cl := cluster.Client()
	for i := 0; i < 2500; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the aggregator to store everything.
	deadline := time.Now().Add(10 * time.Second)
	for m.Aggregator.Stats().Stored < 2500 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	srv, err := NewRecoveryServer(m.Aggregator, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewRecoveryClient(srv.Addr())
	// Full replay spans multiple protocol batches (recoveryBatchMax=1024).
	got, err := client.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2500 {
		t.Fatalf("recovered %d over TCP", len(got))
	}
	got, err = client.Since(2490, 0)
	if err != nil || len(got) != 10 {
		t.Fatalf("Since(2490) = %d, %v", len(got), err)
	}
	// max truncation
	got, err = client.Since(0, 7)
	if err != nil || len(got) != 7 {
		t.Fatalf("Since(0,7) = %d, %v", len(got), err)
	}
	// A consumer can use the TCP client as its recovery source.
	con, err := NewConsumer(ConsumerOptions{
		AggregatorEndpoint: m.Aggregator.Endpoint(),
		Filter:             iface.Filter{Recursive: true},
		Recover:            client,
		SinceSeq:           2495,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	recovered := drainConsumer(con, 300*time.Millisecond)
	if len(recovered) != 5 {
		t.Errorf("consumer recovered %d via TCP", len(recovered))
	}
}

func TestChangelogPurgedAfterProcessing(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 100)
	cl := cluster.Client()
	for i := 0; i < 100; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	log, _ := cluster.Changelog(0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if log.Len() == 0 && m.Collectors[0].Stats().EventsPublished == 100 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("changelog not purged: %d retained", log.Len())
}

func TestCacheReducesFid2PathCalls(t *testing.T) {
	run := func(cache int) CollectorStats {
		cluster := testCluster(1)
		m := deploy(t, cluster, cache)
		defer m.Close()
		cl := cluster.Client()
		for i := 0; i < 200; i++ {
			p := fmt.Sprintf("/f%d", i)
			if err := cl.Create(p); err != nil {
				t.Fatal(err)
			}
			if err := cl.Write(p, 1); err != nil {
				t.Fatal(err)
			}
			if err := cl.Unlink(p); err != nil {
				t.Fatal(err)
			}
		}
		// Reading and resolving are separate pipeline stages; wait for the
		// events to clear the publish sink so the resolve stage's fid2path
		// counters are final, not just for the records to be read.
		deadline := time.Now().Add(10 * time.Second)
		for m.Collectors[0].Stats().EventsPublished < 600 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		return m.Collectors[0].Stats()
	}
	noCache := run(0)
	withCache := run(1000)
	if noCache.RecordsRead != 600 || withCache.RecordsRead != 600 {
		t.Fatalf("records = %d / %d", noCache.RecordsRead, withCache.RecordsRead)
	}
	// No cache: CREAT(1) + MTIME(1) + UNLNK(target fail + parent) ≈ 4
	// calls per 3 records. With cache: ~1 miss per 3 records.
	if noCache.Fid2PathCalls < 700 {
		t.Errorf("no-cache calls = %d, want ~800", noCache.Fid2PathCalls)
	}
	if withCache.Fid2PathCalls > 300 {
		t.Errorf("cached calls = %d, want ~200", withCache.Fid2PathCalls)
	}
	if withCache.Cache.HitRate() < 0.5 {
		t.Errorf("hit rate = %f", withCache.Cache.HitRate())
	}
}

// The resolver distinguishes the expected stale-FID failures of deleted
// files from real errors: a create/write/delete workload produces stale
// counts (every UNLNK target lookup fails) but zero errors.
func TestFid2PathStaleSplitsFromErrors(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 0) // no cache: every UNLNK pays the stale call
	cl := cluster.Client()
	const n = 50
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := cl.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := cl.Unlink(p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Collectors[0].Stats().EventsPublished < 2*n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := m.Collectors[0].Stats()
	if st.Fid2PathStale < n {
		t.Errorf("stale = %d, want at least one per unlink (%d)", st.Fid2PathStale, n)
	}
	if st.Fid2PathErrors != 0 {
		t.Errorf("errors = %d, want 0 (stale FIDs are expected failures, not errors)", st.Fid2PathErrors)
	}
	if st.Fid2PathCalls < st.Fid2PathStale {
		t.Errorf("calls = %d < stale = %d", st.Fid2PathCalls, st.Fid2PathStale)
	}
}

// With a parallel resolve stage the per-FID event order must survive:
// each file's CREATE precedes both of its MODIFYs, in write order, exactly
// as with the serial collector. Small read batches force many batches in
// flight across the four workers. The workload keeps files alive so path
// resolution is order-independent (dead-FID reconstruction depends on
// cache priming by the CREAT's batch, which parallel workers race — see
// the ResolveWorkers doc); ordering is what this test pins down.
func TestResolveWorkersPreserveOrder(t *testing.T) {
	cluster := testCluster(1)
	m, err := Deploy(cluster, DeployOptions{
		CacheSize:      500,
		ResolveWorkers: 4,
		BatchSize:      16,
		PollInterval:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	cl := cluster.Client()
	const n = 300
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := cl.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(p, 1); err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(p, 2); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	var got []events.Event
	for len(got) < 3*n && time.Now().Before(deadline) {
		got = append(got, drainConsumer(con, 200*time.Millisecond)...)
	}
	if len(got) != 3*n {
		t.Fatalf("delivered %d events, want %d", len(got), 3*n)
	}
	next := map[string]int{}
	order := []events.Op{events.OpCreate, events.OpModify, events.OpModify}
	for i, e := range got {
		if next[e.Path] >= len(order) {
			t.Fatalf("event %d: %s delivered more than %d events", i, e.Path, len(order))
		}
		want := order[next[e.Path]]
		if !e.Op.HasAny(want) {
			t.Fatalf("event %d for %s: op %v arrived before %v", i, e.Path, e.Op, want)
		}
		next[e.Path]++
	}
	if len(next) != n {
		t.Errorf("distinct paths = %d, want %d", len(next), n)
	}
	for p, c := range next {
		if c != 3 {
			t.Errorf("%s delivered %d events, want 3", p, c)
		}
	}
}

func TestCollectorStatsAndAccounting(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 50)
	cl := cluster.Client()
	for i := 0; i < 50; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Collectors[0].Stats().EventsPublished < 50 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := m.Collectors[0].Stats()
	if st.BusyTime <= 0 {
		t.Error("no busy time accounted")
	}
	m.ResetAccounting()
	if m.Collectors[0].Stats().BusyTime != 0 {
		t.Error("ResetAccounting did not clear busy time")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewCollector(CollectorOptions{}); err == nil {
		t.Error("collector with neither Cluster nor Mount.DSI accepted")
	}
	both := newFakeDSI()
	if _, err := NewCollector(CollectorOptions{Cluster: testCluster(1), Mount: MountSource{Prefix: "/m", DSI: both}}); err == nil {
		t.Error("collector with both Cluster and Mount.DSI accepted")
	}
	if _, err := Deploy(nil, DeployOptions{}); err == nil {
		t.Error("Deploy with nil cluster and no mounts accepted")
	}
	if _, err := NewCollector(CollectorOptions{Cluster: testCluster(1), MDT: 9}); err == nil {
		t.Error("collector with bad MDT accepted")
	}
	if _, err := NewAggregator(AggregatorOptions{}); err == nil {
		t.Error("aggregator without collectors accepted")
	}
	if _, err := NewConsumer(ConsumerOptions{}); err == nil {
		t.Error("consumer without endpoint accepted")
	}
}

func TestDeployTCPTransport(t *testing.T) {
	cluster := testCluster(2)
	m, err := Deploy(cluster, DeployOptions{CacheSize: 100, Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	cl := cluster.Client()
	const n = 200
	for i := 0; i < n; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	var got []events.Event
	for len(got) < n && time.Now().Before(deadline) {
		got = append(got, drainConsumer(con, 200*time.Millisecond)...)
	}
	if len(got) != n {
		t.Fatalf("tcp transport delivered %d/%d", len(got), n)
	}
}

// Regression: a cached fid→path mapping must be invalidated when the FID
// is renamed, or MOVED_TO (and later events for the FID) would report the
// stale source path.
func TestRenameInvalidatesCachedMapping(t *testing.T) {
	cluster := testCluster(1)
	m := deploy(t, cluster, 100)
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	cl := cluster.Client()
	if err := cl.Mkdir("/okdir"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	// Make sure the CREAT was processed (mapping now cached).
	deadline := time.Now().Add(2 * time.Second)
	for m.Collectors[0].Stats().EventsPublished < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := cl.Rename("/hello.txt", "/okdir/hi.txt"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/okdir/hi.txt"); err != nil {
		t.Fatal(err)
	}
	got := drainConsumer(con, 300*time.Millisecond)
	var movedTo, deleted string
	for _, e := range got {
		if e.Op.HasAny(events.OpMovedTo) {
			movedTo = e.Path
		}
		if e.Op.HasAny(events.OpDelete) && !e.Op.IsDir() {
			deleted = e.Path
		}
	}
	if movedTo != "/okdir/hi.txt" {
		t.Errorf("MOVED_TO path = %q, want /okdir/hi.txt (stale cache?)", movedTo)
	}
	if deleted != "/okdir/hi.txt" {
		t.Errorf("DELETE path = %q, want /okdir/hi.txt (stale cache?)", deleted)
	}
}

// A collector that dies and is replaced loses nothing: the Changelog
// retains records until a reader consumes them, so the replacement picks
// up where the dead collector stopped.
func TestCollectorRestartNoLoss(t *testing.T) {
	cluster := testCluster(1)
	cl := cluster.Client()
	col1, err := NewCollector(CollectorOptions{
		Cluster: cluster, MDT: 0, CacheSize: 100,
		Endpoint: "inproc://restart-col1",
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(AggregatorOptions{
		CollectorEndpoints: []string{col1.Endpoint(), "inproc://restart-col2"},
		Endpoint:           "inproc://restart-agg",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for i := 0; i < 20; i++ {
		if err := cl.Create(fmt.Sprintf("/a%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for agg.Stats().Stored < 20 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	col1.Close() // the collector crashes

	// Events keep accruing while no collector runs; with no registered
	// reader the Changelog retains them.
	for i := 0; i < 20; i++ {
		if err := cl.Create(fmt.Sprintf("/b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	log, _ := cluster.Changelog(0)
	if log.Len() != 20 {
		t.Fatalf("changelog retained %d records, want 20", log.Len())
	}

	col2, err := NewCollector(CollectorOptions{
		Cluster: cluster, MDT: 0, CacheSize: 100,
		Endpoint: "inproc://restart-col2",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	deadline = time.Now().Add(5 * time.Second)
	for agg.Stats().Stored < 40 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := agg.Stats().Stored; got != 40 {
		t.Fatalf("aggregator stored %d events, want 40 (collector restart lost events)", got)
	}
	// Nothing duplicated either.
	all, err := agg.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range all {
		seen[e.Path]++
		if seen[e.Path] > 1 {
			t.Fatalf("duplicate event for %s", e.Path)
		}
	}
}

// An aggregator that crashes and is replaced loses nothing: collectors
// pause consumption while no subscriber is attached (the Changelog
// buffers) and resume against the replacement.
func TestAggregatorRestartNoLoss(t *testing.T) {
	cluster := testCluster(1)
	cl := cluster.Client()
	col, err := NewCollector(CollectorOptions{
		Cluster: cluster, MDT: 0, CacheSize: 100,
		Endpoint: "inproc://aggrestart-col",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	agg1, err := NewAggregator(AggregatorOptions{
		CollectorEndpoints: []string{col.Endpoint()},
		Endpoint:           "inproc://aggrestart-agg1",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if err := cl.Create(fmt.Sprintf("/a%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for agg1.Stats().Stored < 15 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if agg1.Stats().Stored != 15 {
		t.Fatalf("first aggregator stored %d", agg1.Stats().Stored)
	}
	agg1.Close() // the aggregator crashes

	// Events during the outage stay buffered in the Changelog because
	// the collector pauses with no subscriber attached.
	for i := 0; i < 15; i++ {
		if err := cl.Create(fmt.Sprintf("/b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	log, _ := cluster.Changelog(0)
	if log.Len() < 15 {
		t.Fatalf("changelog retained only %d records during aggregator outage", log.Len())
	}

	agg2, err := NewAggregator(AggregatorOptions{
		CollectorEndpoints: []string{col.Endpoint()},
		Endpoint:           "inproc://aggrestart-agg2",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg2.Close()
	deadline = time.Now().Add(5 * time.Second)
	for agg2.Stats().Stored < 15 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := agg2.Stats().Stored; got != 15 {
		t.Fatalf("replacement aggregator stored %d outage events, want 15", got)
	}
	all, _ := agg2.Since(0, 0)
	for _, e := range all {
		if !strings.HasPrefix(e.Path, "/b") {
			t.Errorf("unexpected replayed event %v (pre-crash events were already consumed)", e.Path)
		}
	}
}
