package cluster

import (
	"fmt"
	"testing"
	"time"

	"fsmonitor/internal/msgq"
)

func TestAssignBalancedDeterministic(t *testing.T) {
	members := []string{"n3", "n1", "n0", "n2"}
	a := Assign(7, 32, members)
	if a.Epoch != 7 || a.Parts != 32 || len(a.Owner) != 32 {
		t.Fatalf("assignment shape: %+v", a)
	}
	counts := map[string]int{}
	for p, id := range a.Owner {
		if id == "" {
			t.Fatalf("partition %d unassigned", p)
		}
		counts[id]++
	}
	for _, id := range members {
		if counts[id] != 8 {
			t.Fatalf("member %s owns %d partitions, want 8 (counts %v)", id, counts[id], counts)
		}
	}
	b := Assign(7, 32, []string{"n0", "n1", "n2", "n3", "n2"}) // order/dup insensitive
	for p := range a.Owner {
		if a.Owner[p] != b.Owner[p] {
			t.Fatalf("assignment not deterministic at partition %d: %s vs %s", p, a.Owner[p], b.Owner[p])
		}
	}
}

func TestAssignStability(t *testing.T) {
	all := []string{"n0", "n1", "n2", "n3"}
	before := Assign(1, 32, all)
	after := Assign(2, 32, []string{"n0", "n1", "n3"})
	moved := 0
	for p := range after.Owner {
		if before.Owner[p] == "n2" {
			if after.Owner[p] == "n2" {
				t.Fatalf("partition %d still owned by removed member", p)
			}
			continue
		}
		if after.Owner[p] != before.Owner[p] {
			moved++
		}
	}
	// Rendezvous underneath keeps survivor-owned partitions mostly put;
	// the balance cap may shuffle a few, but losing one of four members
	// must not reshuffle the survivors wholesale.
	if moved > 8 {
		t.Fatalf("%d survivor partitions moved on one departure", moved)
	}
}

func TestAssignNoMembers(t *testing.T) {
	a := Assign(1, 4, nil)
	for p, id := range a.Owner {
		if id != "" {
			t.Fatalf("partition %d assigned to %q with no members", p, id)
		}
	}
}

// memberHarness is one raw membership participant for protocol tests.
type memberHarness struct {
	pub *msgq.Pub
	mem *Membership
}

func newMemberHarness(t *testing.T, id string, parts int, join ...string) *memberHarness {
	return newMemberHarnessTimed(t, id, parts, 10*time.Millisecond, 60*time.Millisecond, join...)
}

func newMemberHarnessTimed(t *testing.T, id string, parts int, interval, failAfter time.Duration, join ...string) *memberHarness {
	t.Helper()
	pub := msgq.NewPub()
	ep := fmt.Sprintf("inproc://memtest-%p-%s", t, id)
	if err := pub.Bind(ep); err != nil {
		t.Fatal(err)
	}
	mem, err := NewMembership(MembershipOptions{
		Self:      MemberInfo{ID: id, Endpoint: ep, Ctl: ep + ".ctl"},
		Pub:       pub,
		Join:      join,
		Parts:     parts,
		Interval:  interval,
		FailAfter: failAfter,
	})
	if err != nil {
		pub.Close()
		t.Fatal(err)
	}
	mem.Start()
	return &memberHarness{pub: pub, mem: mem}
}

func (h *memberHarness) kill() {
	h.mem.Kill()
	h.pub.Close()
}

func TestMembershipConvergenceAndFailure(t *testing.T) {
	const parts = 8
	a := newMemberHarness(t, "a", parts)
	defer a.kill()
	b := newMemberHarness(t, "b", parts, a.mem.Self().Ctl)
	defer b.kill()
	// c joins via a only; it must learn b through gossip.
	c := newMemberHarness(t, "c", parts, a.mem.Self().Ctl)
	defer c.kill()
	for _, h := range []*memberHarness{a, b, c} {
		if err := h.mem.WaitMembers(3, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", h.mem.Self().ID, err)
		}
	}
	// Converged views compute identical owner maps.
	deadline := time.Now().Add(5 * time.Second)
	for {
		aa, ba, ca := a.mem.Assignment(), b.mem.Assignment(), c.mem.Assignment()
		if fmt.Sprint(aa.Owner) == fmt.Sprint(ba.Owner) && fmt.Sprint(ba.Owner) == fmt.Sprint(ca.Owner) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("assignments did not converge: %v / %v / %v", aa.Owner, ba.Owner, ca.Owner)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Kill b without a leave; the failure detector must expire it.
	epochBefore := a.mem.Epoch()
	b.kill()
	deadline = time.Now().Add(5 * time.Second)
	for a.mem.Members() != 2 || c.mem.Members() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("members after kill: a=%d c=%d", a.mem.Members(), c.mem.Members())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if a.mem.Epoch() <= epochBefore {
		t.Fatalf("epoch did not advance on failure: %d -> %d", epochBefore, a.mem.Epoch())
	}
	// The view updates before the assignment recomputes; poll briefly.
	deadline = time.Now().Add(time.Second)
	for {
		stale := false
		for p := 0; p < parts; p++ {
			if a.mem.Assignment().OwnerOf(p) == "b" {
				stale = true
			}
		}
		if !stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("assignment still references dead member")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMembershipGracefulLeave(t *testing.T) {
	a := newMemberHarness(t, "a", 4)
	defer a.kill()
	b := newMemberHarness(t, "b", 4, a.mem.Self().Ctl)
	if err := a.mem.WaitMembers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Leave broadcasts reassign without waiting out FailAfter: generous
	// margin here, but strictly less than the detector's 60ms.
	b.mem.Close()
	deadline := time.Now().Add(50 * time.Millisecond)
	for a.mem.Members() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leave not processed before failure-detector deadline")
		}
		time.Sleep(time.Millisecond)
	}
	b.pub.Close()
}

// TestMembershipStableUnderHeartbeats: with everyone healthy, the view
// must hold steady across many FailAfter windows — heartbeats alone (not
// just ctl hellos) refresh liveness, so no peer flaps dead/alive and the
// epoch never advances. Regression: heartbeat senders were folded in as
// secondhand sightings, so every peer expired each FailAfter and was
// resurrected by the next gossip round, churning epochs and handoffs.
func TestMembershipStableUnderHeartbeats(t *testing.T) {
	const (
		parts = 4
		// Generous windows so scheduler stalls on a loaded test host can't
		// fake a lapse: with the regression, peers expire every FailAfter
		// regardless of its length, so four windows still expose the churn.
		interval  = 20 * time.Millisecond
		failAfter = 250 * time.Millisecond
	)
	a := newMemberHarnessTimed(t, "a", parts, interval, failAfter)
	defer a.kill()
	b := newMemberHarnessTimed(t, "b", parts, interval, failAfter, a.mem.Self().Ctl)
	defer b.kill()
	for _, h := range []*memberHarness{a, b} {
		if err := h.mem.WaitMembers(2, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", h.mem.Self().ID, err)
		}
	}
	epoch := a.mem.Epoch()
	time.Sleep(4 * failAfter)
	if got := a.mem.Members(); got != 2 {
		t.Fatalf("a sees %d members after quiet period", got)
	}
	if got := b.mem.Members(); got != 2 {
		t.Fatalf("b sees %d members after quiet period", got)
	}
	if got := a.mem.Epoch(); got != epoch {
		t.Fatalf("epoch churned %d -> %d with no membership change", epoch, got)
	}
	if age := a.mem.HeartbeatAge(); age > failAfter {
		t.Fatalf("heartbeat age %v exceeds FailAfter with live peers", age)
	}
}

func TestAdvertiseEndpoint(t *testing.T) {
	cases := []struct{ bound, host, want string }{
		{"tcp://0.0.0.0:7400", "10.0.0.5", "tcp://10.0.0.5:7400"},
		{"tcp://127.0.0.1:7400", "example.com", "tcp://example.com:7400"},
		{"0.0.0.0:9000", "10.0.0.5", "10.0.0.5:9000"},
		{"tcp://0.0.0.0:7400", "", "tcp://0.0.0.0:7400"},
		{"inproc://x", "10.0.0.5", "inproc://x"},
		{"inproc://x.ctl", "10.0.0.5", "inproc://x.ctl"},
		{"", "10.0.0.5", ""},
		{"tcp://garbage", "10.0.0.5", "tcp://garbage"},
	}
	for _, c := range cases {
		if got := AdvertiseEndpoint(c.bound, c.host); got != c.want {
			t.Errorf("AdvertiseEndpoint(%q, %q) = %q, want %q", c.bound, c.host, got, c.want)
		}
	}
}

// TestMembershipIDConflict joins a second participant claiming an
// existing member's ID from a different address: both sides must record
// the conflict (so a joining deployment can abort) and the original must
// not absorb the imposter into its peer table.
func TestMembershipIDConflict(t *testing.T) {
	a := newMemberHarness(t, "dup", 4)
	defer a.kill()
	// The imposter claims "dup" too, from its own endpoint (built by hand:
	// the harness derives endpoints from the ID, which must collide here
	// in identity only, not in bind address).
	bpub := msgq.NewPub()
	bep := fmt.Sprintf("inproc://memtest-%p-dup2", t)
	if err := bpub.Bind(bep); err != nil {
		t.Fatal(err)
	}
	bmem, err := NewMembership(MembershipOptions{
		Self:      MemberInfo{ID: "dup", Endpoint: bep, Ctl: bep + ".ctl"},
		Pub:       bpub,
		Join:      []string{a.mem.Self().Ctl},
		Parts:     4,
		Interval:  10 * time.Millisecond,
		FailAfter: 60 * time.Millisecond,
	})
	if err != nil {
		bpub.Close()
		t.Fatal(err)
	}
	bmem.Start()
	b := &memberHarness{pub: bpub, mem: bmem}
	defer b.kill()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, aSaw := a.mem.Conflict()
		_, bSaw := b.mem.Conflict()
		if aSaw && bSaw {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conflict not detected: a=%v b=%v", aSaw, bSaw)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got, _ := a.mem.Conflict(); got.Endpoint == a.mem.Self().Endpoint {
		t.Fatalf("conflict records our own endpoint %q", got.Endpoint)
	}
	if a.mem.Members() != 1 || b.mem.Members() != 1 {
		t.Fatalf("conflicting participants merged into one view: a=%d b=%d members",
			a.mem.Members(), b.mem.Members())
	}
}
