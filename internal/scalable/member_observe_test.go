package scalable

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	n1 := newNode("n1", n0.CtlEndpoint())
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
	n1b := newNode("n1", n0.CtlEndpoint())
	defer n1b.Close()
	waitRollup("rejoined member recovers rollup", true, bothAlive, nil)
}
