package scalable

import (
	"path/filepath"
	"testing"
	"time"

	"fsmonitor/internal/telemetry"
)

// incidentNode bundles one cluster member with its own registry and
// flight recorder — the multi-process shape, where coordination must ride
// the cluster.telemetry topic rather than a shared in-process recorder.
type incidentNode struct {
	node *Aggregator
	reg  *telemetry.Registry
	fr   *telemetry.FlightRecorder
}

func newIncidentNode(t *testing.T, id, journal string, join ...string) *incidentNode {
	t.Helper()
	reg := telemetry.NewRegistry()
	fr, err := reg.EnableFlightRecorder(telemetry.IncidentOptions{
		Dir:      filepath.Join(t.TempDir(), id),
		Node:     id,
		Debounce: -1, MinInterval: -1, CaptureDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := memberOptions(t, id, 4, journal, join...)
	opts.HeartbeatInterval = 20 * time.Millisecond
	opts.FailAfter = 250 * time.Millisecond
	opts.Telemetry = reg
	return &incidentNode{node: startMember(t, opts), reg: reg, fr: fr}
}

// hasBundle reports whether the member's incident dir holds a bundle for
// the given ID.
func (in *incidentNode) hasBundle(id string) bool {
	_, err := in.fr.Read(id)
	return err == nil
}

// TestClusterCoordinatedIncident: a manual trigger on one member
// broadcasts its incident ID over the cluster.telemetry topic, and every
// other member — each with its own registry, recorder, and bundle
// directory — captures a bundle stamped with the same ID.
func TestClusterCoordinatedIncident(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal")
	n0 := newIncidentNode(t, "n0", journal)
	defer n0.node.Close()
	n1 := newIncidentNode(t, "n1", journal, n0.node.CtlEndpoint())
	defer n1.node.Close()
	n2 := newIncidentNode(t, "n2", journal, n0.node.CtlEndpoint())
	defer n2.node.Close()
	members := []*incidentNode{n0, n1, n2}
	for _, in := range members {
		if err := in.node.Membership().WaitMembers(3, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	info, err := n1.fr.TriggerIncident("coordination drill")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := 0
		for _, in := range members {
			in.fr.Wait()
			if in.hasBundle(info.ID) {
				done++
			}
		}
		if done == len(members) {
			break
		}
		if time.Now().After(deadline) {
			for _, in := range members {
				t.Logf("%s: captures=%d has=%v", in.node.ID(), in.fr.Captures(), in.hasBundle(info.ID))
			}
			t.Fatalf("only %d/%d members captured incident %s", done, len(members), info.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The declaring member captured exactly once — its own broadcast
	// echoing back (or N peers relaying) must not double-capture.
	if got := n1.fr.Captures(); got != 1 {
		t.Errorf("triggering member captured %d bundles, want 1", got)
	}
}

// TestClusterIncidentOnMemberDeath is the failure-path acceptance test:
// kill one member of a three-node cluster without a leave, let each
// survivor's own watchdog notice the peer silence (heartbeat-lapse rule),
// and require that the survivors end up with bundles sharing at least one
// incident ID — the tripping node broadcast its incident and the other
// captured the same window.
func TestClusterIncidentOnMemberDeath(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal")
	n0 := newIncidentNode(t, "n0", journal)
	defer n0.node.Close()
	n1 := newIncidentNode(t, "n1", journal, n0.node.CtlEndpoint())
	defer n1.node.Close()
	n2 := newIncidentNode(t, "n2", journal, n0.node.CtlEndpoint())
	defer n2.node.Close()
	survivors := []*incidentNode{n0, n1}
	for _, in := range []*incidentNode{n0, n1, n2} {
		if err := in.node.Membership().WaitMembers(3, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Each survivor runs its own watchdog over its own sampler, exactly
	// as separate processes would.
	type dog struct {
		sampler *telemetry.Sampler
		health  *telemetry.Health
	}
	dogs := make([]dog, len(survivors))
	for i, in := range survivors {
		s := in.reg.StartSampler(time.Hour, 32) // driven by SampleNow below
		t.Cleanup(s.Close)
		h := telemetry.NewHealth(s, telemetry.HealthOptions{HeartbeatLapseMS: 50})
		t.Cleanup(h.Close)
		in.reg.SetHealth(h)
		dogs[i] = dog{sampler: s, health: h}
	}

	n2.node.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, d := range dogs {
			d.sampler.SampleNow()
			d.health.Evaluate()
		}
		shared := false
		for _, in := range survivors {
			in.fr.Wait()
		}
		for _, info := range n0.fr.List() {
			if n1.hasBundle(info.ID) {
				shared = true
			}
		}
		if shared {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shared incident ID across survivors (n0: %d bundles, n1: %d bundles)",
				n0.fr.Captures(), n1.fr.Captures())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
