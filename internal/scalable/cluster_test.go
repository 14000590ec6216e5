package scalable

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/cluster"
	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/msgq"
)

// TestClusterDeployEndToEnd drives the full clustered deployment: two
// aggregator nodes, routed collectors, and a consumer subscribed to both
// nodes, over a live workload.
func TestClusterDeployEndToEnd(t *testing.T) {
	cl := testCluster(1)
	m, err := Deploy(cl, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		ClusterNodes:    2,
		StorePartitions: 4,
		Store:           eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(m.Nodes) != 2 || m.Aggregator != nil {
		t.Fatalf("cluster deploy shape: %d nodes, aggregator %v", len(m.Nodes), m.Aggregator)
	}
	if m.ClusterParts() != 4 {
		t.Fatalf("ClusterParts = %d, want 4", m.ClusterParts())
	}
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	client := cl.Client()
	if err := client.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	const files = 50
	want := map[string]bool{}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/dir/file%03d.dat", i)
		if err := client.Create(path); err != nil {
			t.Fatal(err)
		}
		want[path] = true
	}
	got := drainConsumer(con, 500*time.Millisecond)
	seen := map[string]bool{}
	for _, e := range got {
		if e.Seq == 0 {
			t.Fatalf("event %q missing seq", e.Path)
		}
		if seen[e.Path] {
			t.Fatalf("duplicate event %q", e.Path)
		}
		seen[e.Path] = true
	}
	for path := range want {
		if !seen[path] {
			t.Fatalf("missing event %q (got %d of %d)", path, len(got), files)
		}
	}
	st := m.Stats()
	if len(st.Nodes) != 2 {
		t.Fatalf("stats nodes = %d", len(st.Nodes))
	}
	var stored uint64
	for _, ns := range st.Nodes {
		stored += ns.Stored
	}
	if stored < files {
		t.Fatalf("cluster stored %d events, want >= %d", stored, files)
	}
	// Both nodes own partitions in steady state.
	for i, ns := range st.Nodes {
		if ns.PartitionsOwned != 2 {
			t.Fatalf("node %d owns %d partitions, want 2", i, ns.PartitionsOwned)
		}
	}
}

// tierOutput is everything a consumer can observe of an aggregation tier
// fed one op stream: the republished wire images per topic, and the raw
// recovery-server responses to a scalar and a vector request from zero.
type tierOutput struct {
	republished   map[string][][]byte
	since, sincev []byte
}

// runTier feeds a fixed op stream — twelve batches dealt round-robin over
// the partitions, renames among them — into a classic aggregator (id "") or
// a founding one-member cluster (id set), over inproc (the collector shares
// its block pointers) or TCP (real encoding on both hops), and captures what
// comes out.
func runTier(t *testing.T, parts int, transport, id string) tierOutput {
	t.Helper()
	endpoint := func(role string) string {
		if transport == "tcp" {
			return "tcp://127.0.0.1:0"
		}
		return fmt.Sprintf("inproc://wireid-%p-%s-%s", t, role, id)
	}
	col := msgq.NewPub(msgq.WithBlockOnFull())
	if err := col.Bind(endpoint("col")); err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	opts := AggregatorOptions{
		ID:                 id,
		CollectorEndpoints: []string{col.Addr()},
		Endpoint:           endpoint("agg"),
		StorePartitions:    parts,
	}
	agg, err := NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if id != "" {
		if err := agg.Start(); err != nil {
			t.Fatal(err)
		}
	}
	sub := msgq.NewSub()
	sub.Subscribe(AggTopic)
	if err := sub.Connect(agg.Endpoint()); err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := col.WaitSubscribed(ctx); err != nil {
		t.Fatal(err)
	}

	const batches, perBatch = 12, 5
	base := time.Unix(1700000000, 0).UTC()
	for b := 0; b < batches; b++ {
		blk := events.NewBlock(perBatch, 0)
		for i := 0; i < perBatch; i++ {
			n := b*perBatch + i
			e := events.Event{
				Root: "/mnt/lustre", Op: events.OpCreate, Path: fmt.Sprintf("/wire/d%d/f%03d", b, i),
				Time: base.Add(time.Duration(n) * time.Millisecond), Source: fmt.Sprintf("mdt%d", b%parts),
			}
			if n%7 == 0 {
				e.Op, e.OldPath, e.Cookie = events.OpMovedTo, e.Path+".old", uint32(n)
			}
			if err := blk.AppendEvent(e); err != nil {
				t.Fatal(err)
			}
		}
		topic := fmt.Sprintf("%smdt%d", TopicPrefix, b%parts)
		if id != "" {
			topic = msgq.NodeTopic(id, b%parts)
		}
		if delivered, _ := col.PublishBlockCtx(ctx, topic, blk); delivered == 0 {
			t.Fatalf("batch %d reached no intake", b)
		}
	}

	out := tierOutput{republished: map[string][][]byte{}}
	for got := 0; got < batches; got++ {
		m, ok := sub.Recv(ctx)
		if !ok {
			t.Fatalf("republished %d of %d batches", got, batches)
		}
		wire := m.Payload
		if m.Block != nil {
			wire = m.Block.Wire()
		}
		out.republished[m.Topic] = append(out.republished[m.Topic], wire)
	}
	srv, err := NewRecoveryServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out.since = rawRecoveryResponse(t, srv.Addr(), msgq.Message{Topic: recoveryReqTopic, Payload: encodeSeq(0)})
	out.sincev = rawRecoveryResponse(t, srv.Addr(), msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector(make([]uint64, parts))})
	return out
}

// TestClusterSingleNodeWireIdentity proves the compatibility bar of the one
// aggregation tier: a founding one-member cluster republishes byte for byte
// what the classic aggregator does for the same op stream — same topics,
// same sequence lanes, same wire images — and serves the same recovery
// stream. The only difference a consumer can see is the coverage frame a
// member puts in front of a vector response (it holds every partition here,
// and says so); a classic aggregator sends none.
func TestClusterSingleNodeWireIdentity(t *testing.T) {
	for _, parts := range []int{1, 4} {
		for _, transport := range []string{"inproc", "tcp"} {
			t.Run(fmt.Sprintf("partitions=%d/%s", parts, transport), func(t *testing.T) {
				classic := runTier(t, parts, transport, "")
				clustered := runTier(t, parts, transport, "n0")

				if len(classic.republished) != parts {
					t.Fatalf("classic republished on %d topics, want %d", len(classic.republished), parts)
				}
				for topic, want := range classic.republished {
					got := clustered.republished[topic]
					if len(got) != len(want) {
						t.Fatalf("topic %s: clustered republished %d batches, classic %d", topic, len(got), len(want))
					}
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("topic %s batch %d: wire differs:\nclassic   %d bytes %x\nclustered %d bytes %x",
								topic, i, len(want[i]), want[i], len(got[i]), got[i])
						}
					}
				}

				digest := func(b []byte) string { return fmt.Sprintf("%d bytes sha256 %x", len(b), sha256.Sum256(b)) }
				if !bytes.Equal(classic.since, clustered.since) {
					t.Fatalf("scalar recovery stream differs: classic %s, clustered %s", digest(classic.since), digest(clustered.since))
				}
				var coverage bytes.Buffer
				all := make([]int, parts)
				for p := range all {
					all[p] = p
				}
				w := bufio.NewWriter(&coverage)
				if err := msgq.WriteFrame(w, msgq.Message{Topic: recoveryOwnedTopic, Payload: encodeParts(all)}); err != nil {
					t.Fatal(err)
				}
				if want := append(coverage.Bytes(), classic.sincev...); !bytes.Equal(clustered.sincev, want) {
					t.Fatalf("vector recovery stream: clustered %s, want the full coverage frame then classic's %s",
						digest(clustered.sincev), digest(classic.sincev))
				}
			})
		}
	}
}

// TestClassicAggregatorHasNoMembership pins what "membership is a parameter"
// costs a classic deployment: nothing. No ctl inbox is bound (the address a
// member would have taken is still free), no membership exists, and no
// membership goroutine runs.
func TestClassicAggregatorHasNoMembership(t *testing.T) {
	col := msgq.NewPub()
	if err := col.Bind(fmt.Sprintf("inproc://classic-%p-col", t)); err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	endpoint := fmt.Sprintf("inproc://classic-%p-agg", t)
	agg, err := NewAggregator(AggregatorOptions{CollectorEndpoints: []string{col.Addr()}, Endpoint: endpoint})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if agg.Membership() != nil || agg.ID() != "" {
		t.Fatalf("classic aggregator has membership %v, ID %q", agg.Membership(), agg.ID())
	}
	if snap := agg.RecoverySnapshot(); snap != nil {
		t.Fatalf("classic aggregator limits its recovery coverage to %v", snap.OwnedPartitions())
	}
	ctl := msgq.NewPull(0)
	if err := ctl.Bind(endpoint + ".ctl"); err != nil {
		t.Fatalf("the ctl inbox address is taken: %v", err)
	}
	ctl.Close()
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if bytes.Contains(stacks, []byte("cluster.(*Membership).tickLoop")) {
		t.Fatalf("a heartbeat goroutine is running:\n%s", stacks)
	}
}

// TestClusterConsumerHandoffRecovery is the ISSUE's exactness bar at the
// consumer level: a consumer's cursor vector taken before a node dies
// resumes exactly across the handoff — the fan-out recovery replays every
// post-cursor event once, including events stored by the dead node and
// recovered by the survivor, with no loss and no duplicates.
func TestClusterConsumerHandoffRecovery(t *testing.T) {
	const parts = 4
	journal := filepath.Join(t.TempDir(), "journal")
	newNode := func(id string, join ...string) (*Aggregator, *RecoveryServer) {
		n, err := NewAggregator(memberOptions(t, id, parts, journal, join...))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecoveryServer(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.SetRecovery(rec.Addr())
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		return n, rec
	}
	n0, rec0 := newNode("n0")
	defer n0.Close()
	defer rec0.Close()
	n1, rec1 := newNode("n1", n0.CtlEndpoint())
	defer n1.Close()
	for _, n := range []*Aggregator{n0, n1} {
		if err := n.Membership().WaitMembers(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitOwned := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(n0.OwnedPartitions())+len(n1.OwnedPartitions()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("owned: n0=%v n1=%v", n0.OwnedPartitions(), n1.OwnedPartitions())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitOwned(parts)

	// Routed publisher standing in for the collector tier.
	col := msgq.NewPub(msgq.WithBlockOnFull())
	if err := col.Bind(fmt.Sprintf("inproc://handoff-%p-col", t)); err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for _, n := range []*Aggregator{n0, n1} {
		if err := n.ConnectCollectors(col.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	alive := []*Aggregator{n0, n1}
	publish := func(phase string, count int) map[string]bool {
		t.Helper()
		paths := map[string]bool{}
		for i := 0; i < count; i++ {
			path := fmt.Sprintf("/%s/f%03d", phase, i)
			p := eventstore.PartitionForPath(path, parts)
			payload := eventstest.WireBatch(t, []events.Event{{Path: path, Op: events.OpCreate, Root: "/mnt", Source: "test"}}, 0, nil)
			deadline := time.Now().Add(5 * time.Second)
			for {
				owner := alive[0].Membership().Assignment().OwnerOf(p)
				if owner != "" {
					if n := col.PublishCtx(context.Background(), msgq.NodeTopic(owner, p), payload); n > 0 {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("could not deliver %s", path)
				}
				time.Sleep(2 * time.Millisecond)
			}
			paths[path] = true
		}
		return paths
	}

	fanout := NewRecoveryFanout(parts, rec0.Addr(), rec1.Addr())
	con1, err := NewConsumer(ConsumerOptions{
		AggregatorEndpoints: []string{n0.Endpoint(), n1.Endpoint()},
		Filter:              iface.Filter{Recursive: true},
		Recover:             fanout,
		StorePartitions:     parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	phase1 := publish("one", 30)
	got1 := drainConsumer(con1, 400*time.Millisecond)
	if len(got1) != len(phase1) {
		t.Fatalf("consumer 1 delivered %d events, want %d", len(got1), len(phase1))
	}
	cursors := con1.LastSeqVector()
	con1.Close()

	// Kill n1 and its recovery server mid-stream; n0 must take over by
	// journal replay before the next phase lands.
	n1.Kill()
	rec1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(n0.OwnedPartitions()) != parts {
		if time.Now().After(deadline) {
			t.Fatalf("survivor owns %v", n0.OwnedPartitions())
		}
		time.Sleep(2 * time.Millisecond)
	}
	phase2 := publish("two", 30)
	deadline = time.Now().Add(5 * time.Second)
	for n0.Stats().Stored+n1.Stats().Stored < 60 {
		if time.Now().After(deadline) {
			t.Fatalf("stored %d+%d", n0.Stats().Stored, n1.Stats().Stored)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Resume from the pre-handoff cursor vector. The fan-out still lists
	// the dead node's recovery address: its dial failure must be survived,
	// with coverage proven by the survivor alone.
	con2, err := NewConsumer(ConsumerOptions{
		AggregatorEndpoints: []string{n0.Endpoint()},
		Filter:              iface.Filter{Recursive: true},
		Recover:             fanout,
		SinceVector:         cursors,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer con2.Close()
	got2 := drainConsumer(con2, 400*time.Millisecond)
	seen := map[string]bool{}
	for _, e := range got2 {
		if seen[e.Path] {
			t.Fatalf("duplicate event %q after resume", e.Path)
		}
		seen[e.Path] = true
		if phase1[e.Path] {
			t.Fatalf("pre-cursor event %q replayed", e.Path)
		}
		if !phase2[e.Path] {
			t.Fatalf("unexpected event %q", e.Path)
		}
	}
	if len(seen) != len(phase2) {
		t.Fatalf("resumed consumer saw %d events, want %d", len(seen), len(phase2))
	}
}

func TestClusterIDPrefixDefaults(t *testing.T) {
	if p, err := clusterIDPrefix(DeployOptions{}); err != nil || p != "n" {
		t.Fatalf("founding prefix = %q, %v; want \"n\"", p, err)
	}
	p, err := clusterIDPrefix(DeployOptions{ClusterJoin: []string{"tcp://seed:7401"}})
	if err != nil {
		t.Fatal(err)
	}
	if p == "n" {
		t.Fatal("joining deployment must not default to the founding prefix")
	}
	if !cluster.ValidID(p + "0") {
		t.Fatalf("derived prefix %q does not form valid member IDs", p)
	}
	if p2, err := clusterIDPrefix(DeployOptions{ClusterNodePrefix: "agg-"}); err != nil || p2 != "agg-" {
		t.Fatalf("explicit prefix = %q, %v", p2, err)
	}
	if _, err := clusterIDPrefix(DeployOptions{ClusterNodePrefix: "bad.prefix"}); err == nil {
		t.Fatal("prefix containing '.' must be rejected")
	}
}

// TestClusterNodePrefixAndMembers deploys with an explicit ID prefix and
// checks the members listing exposes every node's reachable addresses.
func TestClusterNodePrefixAndMembers(t *testing.T) {
	cl := testCluster(1)
	m, err := Deploy(cl, DeployOptions{
		CacheSize:         100,
		PollInterval:      time.Millisecond,
		ClusterNodes:      2,
		StorePartitions:   4,
		ClusterNodePrefix: "agg-",
		Store:             eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, n := range m.Nodes {
		if want := fmt.Sprintf("agg-%d", i); n.ID() != want {
			t.Fatalf("node %d ID = %q, want %q", i, n.ID(), want)
		}
	}
	members := m.ClusterMembers()
	if len(members) != 2 {
		t.Fatalf("ClusterMembers = %d entries, want 2", len(members))
	}
	for _, mi := range members {
		if mi.Endpoint == "" || mi.Ctl == "" || mi.Recovery == "" {
			t.Fatalf("member %q missing addresses: %+v", mi.ID, mi)
		}
	}
}

// TestClusterJoinIDConflictRejected joins a second deployment that
// reuses the founding deployment's ID prefix: the joiner must detect the
// live ID collision and refuse to run instead of splitting the colliding
// member's routed topics and sequence lanes.
func TestClusterJoinIDConflictRejected(t *testing.T) {
	cl := testCluster(1)
	dir := t.TempDir()
	a, err := Deploy(cl, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		ClusterNodes:    1,
		StorePartitions: 2,
		Store:           eventstore.Options{JournalPath: filepath.Join(dir, "journal-a")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	_, err = Deploy(cl, DeployOptions{
		CacheSize:         100,
		PollInterval:      time.Millisecond,
		ClusterNodes:      1,
		StorePartitions:   2,
		ClusterJoin:       []string{a.Nodes[0].CtlEndpoint()},
		ClusterNodePrefix: "n", // collides with the founder's n0
		Store:             eventstore.Options{JournalPath: filepath.Join(dir, "journal-b")},
	})
	if err == nil {
		t.Fatal("joining with a colliding member ID must fail")
	}
	if !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// snapTestSource is a recovery source whose live coverage view disagrees
// with its snapshot: the server must trust the snapshot for both the
// coverage frame and the events, or a partition released between the two
// reads would be claimed as covered with its history silently missing.
type snapTestSource struct {
	*eventstore.Sharded                     // two partitions, empty: paging it recovers nothing
	snap                *eventstore.Sharded // two partitions, every event on partition 1
}

func (s snapTestSource) OwnedPartitions() []int { return []int{0, 1} }
func (s snapTestSource) RecoverySnapshot() RecoverySourceSnapshot {
	return snapTestSnapshot{s.snap}
}

type snapTestSnapshot struct {
	*eventstore.Sharded
}

func (f snapTestSnapshot) OwnedPartitions() []int { return []int{1} }

func TestRecoveryServerSnapshotCoverage(t *testing.T) {
	eng, err := eventstore.NewSharded(2, eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	blk, err := events.DecodeBlock(eventstest.WireBatch(t, []events.Event{{Path: "/a", Op: events.OpCreate}, {Path: "/b", Op: events.OpCreate}}, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AppendBlockPartition(1, blk); err != nil {
		t.Fatal(err)
	}
	live, err := eventstore.NewSharded(2, eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	srv, err := NewRecoveryServer(snapTestSource{live, eng}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewRecoveryClient(srv.Addr())
	evs, owned, err := cli.SinceVectorOwned([]uint64{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(owned) != 1 || owned[0] != 1 {
		t.Fatalf("coverage frame %v, want [1] (the snapshot's view, not the live source's)", owned)
	}
	if len(evs) != 2 {
		t.Fatalf("recovered %d events, want 2", len(evs))
	}
}
