package scalable

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/telemetry"
)

// TestClusterHealthzMemberDeathAndRejoin is the acceptance test for the
// observability plane's failure story across a real member death: a
// two-node cluster serves a 200 rollup with both members, a killed node
// flips /cluster/healthz to 503 (dead member, detected by snapshot age)
// within one failure-detector window, the cluster-heartbeat-lapse
// watchdog rule fires on the survivor's peer-silence during the same
// window, and a rejoin under the dead node's ID recovers the rollup
// to 200.
func TestClusterHealthzMemberDeathAndRejoin(t *testing.T) {
	const parts = 4
	const failAfter = 250 * time.Millisecond
	journal := filepath.Join(t.TempDir(), "journal")

	reg := telemetry.NewRegistry()
	sampler := reg.StartSampler(time.Hour, 64) // driven by SampleNow below
	t.Cleanup(sampler.Close)
	health := telemetry.NewHealth(sampler, telemetry.HealthOptions{HeartbeatLapseMS: 50})
	t.Cleanup(health.Close)
	reg.SetHealth(health)

	newNode := func(id string, join ...string) *Aggregator {
		t.Helper()
		opts := memberOptions(t, id, parts, journal, join...)
		opts.HeartbeatInterval = 20 * time.Millisecond
		opts.FailAfter = failAfter
		opts.Telemetry = reg
		return startMember(t, opts)
	}
	n0 := newNode("n0")
	defer n0.Close()
	n1 := newNode("n1", n0.Endpoint())
	defer n1.Close()
	for _, n := range []*Aggregator{n0, n1} {
		if err := n.Membership().WaitMembers(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/cluster/healthz"

	// waitRollup polls until the endpoint's HTTP verdict matches wantOK and
	// the report passes check, or fails the test. onPoll (optional) runs
	// each iteration — the death phase uses it to watch the watchdog.
	waitRollup := func(what string, wantOK bool, check func(telemetry.ClusterReport) bool, onPoll func()) telemetry.ClusterReport {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if onPoll != nil {
				onPoll()
			}
			rep, ok, err := telemetry.FetchClusterHealth(url)
			if err == nil && ok == wantOK && check(rep) {
				return rep
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: ok=%v err=%v report=%+v", what, ok, err, rep)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	bothAlive := func(rep telemetry.ClusterReport) bool {
		if len(rep.Members) != 2 {
			return false
		}
		for _, m := range rep.Members {
			if m.Dead {
				return false
			}
		}
		return true
	}

	rep := waitRollup("initial 2-member rollup", true, bothAlive, nil)
	for _, m := range rep.Members {
		if m.Node != "n0" && m.Node != "n1" {
			t.Fatalf("unexpected member %q in %+v", m.Node, rep.Members)
		}
	}

	// Kill n1 without a leave: peers must detect the silence. While the
	// rollup converges, drive the sampler so the survivor's growing
	// peer-heartbeat age crosses the lapse threshold in a sample the
	// watchdog evaluates.
	killedAt := time.Now()
	n1.Kill()
	lapseFired := false
	rep = waitRollup("dead member flips rollup to 503", false,
		func(rep telemetry.ClusterReport) bool { return rep.Status == telemetry.StatusStalled },
		func() {
			if lapseFired {
				return
			}
			sampler.SampleNow()
			for _, v := range health.Evaluate().Tiers {
				for _, reason := range v.Reasons {
					if strings.Contains(reason, "heartbeat") {
						lapseFired = true
					}
				}
			}
		})
	if detect := time.Since(killedAt); detect > 4*failAfter {
		t.Errorf("death detected after %v, want within one failure-detector window (%v)", detect, failAfter)
	}
	if !lapseFired {
		t.Error("cluster-heartbeat-lapse rule never fired during the silence window")
	}
	deadSeen := false
	for _, m := range rep.Members {
		if m.Node == "n1" {
			deadSeen = true
			if !m.Dead || m.Status != telemetry.StatusStalled {
				t.Errorf("killed member state: %+v", m)
			}
		}
	}
	if !deadSeen {
		t.Fatalf("killed member missing from rollup: %+v", rep.Members)
	}

	// Rejoin under the same ID: fresh snapshots revive the member and the
	// rollup recovers to 200 — the operator's signal that the cluster is
	// whole again.
	n1b := newNode("n1", n0.Endpoint())
	defer n1b.Close()
	waitRollup("rejoined member recovers rollup", true, bothAlive, nil)
}

// TestMemberRegistersClassicNames: every name a classic aggregator
// registers under "fsmon.aggregator." and "fsmon.store." a cluster member
// registers under "fsmon.cluster.<id>.", and nothing under the classic
// prefixes. The list is the diff of two deployments' registries, not a
// hand-kept one.
func TestMemberRegistersClassicNames(t *testing.T) {
	deploy := func(nodes int) (map[string]any, *Monitor) {
		t.Helper()
		reg := telemetry.NewRegistry()
		m, err := Deploy(testCluster(1), DeployOptions{
			CacheSize:       100,
			PollInterval:    time.Millisecond,
			ClusterNodes:    nodes,
			StorePartitions: 4,
			Store:           eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
			Telemetry:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return reg.Snapshot(), m
	}
	classic, _ := deploy(0)
	clustered, m := deploy(2)

	var want []string
	for name := range classic {
		if strings.HasPrefix(name, "fsmon.aggregator.") || strings.HasPrefix(name, "fsmon.store.") {
			want = append(want, strings.TrimPrefix(name, "fsmon."))
		}
	}
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("the classic deploy registered no aggregator or store names")
	}
	for _, n := range m.Nodes {
		for _, name := range want {
			if _, ok := clustered["fsmon.cluster."+n.ID()+"."+name]; !ok {
				t.Errorf("member %s lacks fsmon.cluster.%s.%s", n.ID(), n.ID(), name)
			}
		}
	}
	for name := range clustered {
		if strings.HasPrefix(name, "fsmon.aggregator.") || strings.HasPrefix(name, "fsmon.store.") {
			t.Errorf("a clustered deploy registers the classic name %s", name)
		}
	}
}

// TestForwardingMemberNotStalled: a member whose intake carries only
// batches for a partition its peer owns forwards every one and stays ok
// over K+1 watchdog windows. Fed undecodable batches for a partition it
// holds, the same member drops them and reads stalled: the watchdog's
// stall rule covers members.
func TestForwardingMemberNotStalled(t *testing.T) {
	const parts, k, perWindow = 4, 2, 20
	journal := filepath.Join(t.TempDir(), "journal")
	reg := telemetry.NewRegistry()
	sampler := reg.StartSampler(time.Hour, 64) // driven by SampleNow below
	t.Cleanup(sampler.Close)
	health := telemetry.NewHealth(sampler, telemetry.HealthOptions{Windows: k})
	t.Cleanup(health.Close)
	col := msgq.NewPub(msgq.WithBlockOnFull())
	colEP := fmt.Sprintf("inproc://forwardok-%p-col", t)
	if err := col.Bind(colEP); err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	member := func(id string, join ...string) *Aggregator {
		opts := memberOptions(t, id, parts, journal, join...)
		opts.CollectorEndpoints = []string{colEP}
		opts.EventOverhead = time.Nanosecond
		// No failover in this test: a loaded host must not fake a death.
		opts.HeartbeatInterval, opts.FailAfter = 50*time.Millisecond, 10*time.Second
		opts.Telemetry = reg
		return startMember(t, opts)
	}
	n0 := member("n0")
	defer n0.Close()
	n1 := member("n1", n0.Endpoint())
	defer n1.Close()
	held, peers := -1, -1
	for deadline := time.Now().Add(5 * time.Second); held < 0 || peers < 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no partition settled on each member: n0=%v n1=%v", n0.OwnedPartitions(), n1.OwnedPartitions())
		}
		if len(n0.OwnedPartitions())+len(n1.OwnedPartitions()) != parts {
			continue
		}
		owners := n0.Membership().Assignment()
		for _, p := range n0.OwnedPartitions() {
			if owners.OwnerOf(p) == "n0" {
				held = p
			}
		}
		for _, p := range n1.OwnedPartitions() {
			if owners.OwnerOf(p) == "n1" {
				peers = p
			}
		}
	}

	// window publishes perWindow copies of payload, a batch of which n0
	// forwards rows events, to n0's inbox for part, waits until n0's store
	// lane has taken them all and every forward has landed, and samples.
	sent, forwarded := uint64(0), uint64(0)
	window := func(part int, payload []byte, rows int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for i := 0; i < perWindow; i++ {
			for col.PublishCtx(context.Background(), msgq.NodeTopic("n0", part), payload) != 1 {
				if time.Now().After(deadline) {
					t.Fatal("n0's intake is not subscribed")
				}
				time.Sleep(time.Millisecond)
			}
		}
		sent += perWindow
		forwarded += uint64(perWindow * rows)
		for storeLane(n0).In < sent || n0.Stats().StraysForwarded < forwarded {
			if time.Now().After(deadline) {
				t.Fatalf("n0's store lane took %d of %d batches and forwarded %d of %d events",
					storeLane(n0).In, sent, n0.Stats().StraysForwarded, forwarded)
			}
			time.Sleep(time.Millisecond)
		}
		sampler.SampleNow()
	}
	cluster := func() telemetry.Verdict {
		for _, v := range health.Evaluate().Tiers {
			if v.Tier == "cluster" {
				return v
			}
		}
		t.Fatal("no cluster tier verdict")
		return telemetry.Verdict{}
	}

	evs := make([]events.Event, 4)
	for i := range evs {
		evs[i] = events.Event{Path: fmt.Sprintf("/fwd/f%d", i), Op: events.OpCreate, Root: "/mnt", Source: "test"}
	}
	stray := eventstest.WireBatch(t, evs, 0, nil)
	sampler.SampleNow()
	for w := 0; w <= k; w++ {
		window(peers, stray, len(evs))
		if v := cluster(); v.Status != telemetry.StatusOK {
			t.Fatalf("window %d: a forwarding member reads %v: %v", w, v.Status, v.Reasons)
		}
	}
	if got, want := n0.Stats().StraysForwarded, sent*uint64(len(evs)); got != want {
		t.Errorf("n0 forwarded %d events, want %d", got, want)
	}

	for w := 0; w < k; w++ {
		window(held, []byte("not a block"), 0)
	}
	v := cluster()
	if v.Status != telemetry.StatusStalled || !strings.Contains(strings.Join(v.Reasons, "; "), "fsmon.cluster.n0.aggregator.pipeline.store") {
		t.Fatalf("a member dropping every batch reads %v: %v", v.Status, v.Reasons)
	}
}

// storeLane returns the aggregator's store stage counters.
func storeLane(a *Aggregator) pipeline.Stats {
	for _, st := range a.Stats().Pipeline {
		if st.Name == "store" {
			return st
		}
	}
	return pipeline.Stats{}
}
