package cluster

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
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

// harnessSeq names the harnesses' in-process endpoints.
var harnessSeq atomic.Uint64

// forTransports runs f as a subtest per msgq transport.
func forTransports(t *testing.T, f func(t *testing.T, tcp bool)) {
	for _, tcp := range []bool{false, true} {
		name := "inproc"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) { f(t, tcp) })
	}
}

func newMemberHarness(t *testing.T, tcp bool, id string, parts int, join ...string) *memberHarness {
	return newMemberHarnessTimed(t, tcp, id, parts, 10*time.Millisecond, 60*time.Millisecond, join...)
}

func newMemberHarnessTimed(t *testing.T, tcp bool, id string, parts int, interval, failAfter time.Duration, join ...string) *memberHarness {
	t.Helper()
	ep := fmt.Sprintf("inproc://memtest-%d", harnessSeq.Add(1))
	if tcp {
		ep = "tcp://127.0.0.1:0"
	}
	return newMemberHarnessOn(t, ep, id, parts, interval, failAfter, join...)
}

// newMemberHarnessOn starts a member whose pub binds ep.
func newMemberHarnessOn(t *testing.T, ep, id string, parts int, interval, failAfter time.Duration, join ...string) *memberHarness {
	t.Helper()
	pub := msgq.NewPub()
	if err := pub.Bind(ep); err != nil {
		t.Fatal(err)
	}
	mem, err := NewMembership(MembershipOptions{
		Self:      MemberInfo{ID: id, Endpoint: pub.Addr()},
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
	forTransports(t, testMembershipConvergenceAndFailure)
}

func testMembershipConvergenceAndFailure(t *testing.T, tcp bool) {
	const parts = 8
	a := newMemberHarness(t, tcp, "a", parts)
	defer a.kill()
	b := newMemberHarness(t, tcp, "b", parts, a.mem.Self().Endpoint)
	defer b.kill()
	// c joins via a only; it must learn b through gossip.
	c := newMemberHarness(t, tcp, "c", parts, a.mem.Self().Endpoint)
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

func TestMembershipGracefulLeave(t *testing.T) { forTransports(t, testMembershipGracefulLeave) }

func testMembershipGracefulLeave(t *testing.T, tcp bool) {
	a := newMemberHarness(t, tcp, "a", 4)
	defer a.kill()
	b := newMemberHarness(t, tcp, "b", 4, a.mem.Self().Endpoint)
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
// just hellos) refresh liveness, so no peer flaps dead/alive and the
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
	a := newMemberHarnessTimed(t, false, "a", parts, interval, failAfter)
	defer a.kill()
	b := newMemberHarnessTimed(t, false, "b", parts, interval, failAfter, a.mem.Self().Endpoint)
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
func TestMembershipIDConflict(t *testing.T) { forTransports(t, testMembershipIDConflict) }

func testMembershipIDConflict(t *testing.T, tcp bool) {
	a := newMemberHarness(t, tcp, "dup", 4)
	defer a.kill()
	// The imposter claims "dup" too, from its own endpoint.
	b := newMemberHarness(t, tcp, "dup", 4, a.mem.Self().Endpoint)
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

// An observer binds no socket: it joins through its link to a member's
// pub, hears the answer there, and converges on the members' view without
// being counted in it.
func TestMembershipObserverBindsNothing(t *testing.T) {
	forTransports(t, func(t *testing.T, tcp bool) {
		a := newMemberHarness(t, tcp, "a", 4)
		defer a.kill()
		b := newMemberHarness(t, tcp, "b", 4, a.mem.Self().Endpoint)
		defer b.kill()
		obs, err := NewMembership(MembershipOptions{
			Self:      MemberInfo{ID: "router"},
			Observer:  true,
			Join:      []string{a.mem.Self().Endpoint},
			Parts:     4,
			Interval:  10 * time.Millisecond,
			FailAfter: 60 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		obs.Start()
		defer obs.Kill()
		if err := obs.WaitJoined(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := obs.WaitMembers(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*memberHarness{a, b} {
			if err := h.mem.WaitMembers(2, 5*time.Second); err != nil {
				t.Fatalf("%s: %v", h.mem.Self().ID, err)
			}
			if n := h.mem.Members(); n != 2 {
				t.Fatalf("%s counts %d members with an observer joined, want 2", h.mem.Self().ID, n)
			}
		}
	})
}

// A joiner that dials its seed by another address than the one the seed
// advertises (localhost against 127.0.0.1) is still answered: the answer
// carries the address the hello went to.
func TestMembershipJoinByAnotherAddress(t *testing.T) {
	a := newMemberHarness(t, true, "a", 4)
	defer a.kill()
	seed := strings.Replace(a.mem.Self().Endpoint, "127.0.0.1", "localhost", 1)
	if seed == a.mem.Self().Endpoint {
		t.Fatalf("advertised endpoint %q is not on 127.0.0.1", seed)
	}
	b := newMemberHarness(t, true, "b", 4, seed)
	defer b.kill()
	if err := b.mem.WaitJoined(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*memberHarness{a, b} {
		if err := h.mem.WaitMembers(2, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", h.mem.Self().ID, err)
		}
	}
}

// A founder that restarts on its address, with no Join list, is learned
// again by the member that joined through it: that member hears it
// heartbeat without listing it, and hellos it. Otherwise the founder counts
// itself alone and claims every partition the other also owns.
func TestMembershipFounderRestart(t *testing.T) {
	const interval, failAfter = 10 * time.Millisecond, 60 * time.Millisecond
	a := newMemberHarness(t, true, "a", 4)
	ep := a.mem.Self().Endpoint
	b := newMemberHarness(t, true, "b", 4, ep)
	defer b.kill()
	for _, h := range []*memberHarness{a, b} {
		if err := h.mem.WaitMembers(2, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", h.mem.Self().ID, err)
		}
	}
	a.kill()
	a = newMemberHarnessOn(t, ep, "a", 4, interval, failAfter)
	defer a.kill()
	for _, h := range []*memberHarness{a, b} {
		if err := h.mem.WaitMembers(2, 5*time.Second); err != nil {
			t.Fatalf("restarted: %s: %v", h.mem.Self().ID, err)
		}
	}
	waitFor(t, func() bool {
		return fmt.Sprint(a.mem.Assignment().Owner) == fmt.Sprint(b.mem.Assignment().Owner)
	}, "the restarted founder's map to match the member's")
}

// A joiner is answered only by an answer to its own hello: every subscriber
// of the seed hears each answer, and one for another joiner that dialed the
// same address does not mark the seed answered. Until its own comes, the
// joiner says hello again every FailAfter.
func TestMembershipJoinAnswerIsForSender(t *testing.T) {
	forTransports(t, func(t *testing.T, tcp bool) {
		seed := msgq.NewPub() // a seed whose owner answers by hand
		ep := fmt.Sprintf("inproc://memtest-%d", harnessSeq.Add(1))
		if tcp {
			ep = "tcp://127.0.0.1:0"
		}
		if err := seed.Bind(ep); err != nil {
			t.Fatal(err)
		}
		defer seed.Close()
		ep = seed.Addr()
		obs, err := NewMembership(MembershipOptions{
			Self:      MemberInfo{ID: "c"},
			Observer:  true,
			Join:      []string{ep},
			Parts:     4,
			Interval:  10 * time.Millisecond,
			FailAfter: 60 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		obs.Start()
		defer obs.Kill()
		hello := func() {
			t.Helper()
			select {
			case m := <-seed.Inbox():
				var c ctrlMsg
				if err := json.Unmarshal(m.Payload, &c); err != nil || c.Kind != "hello" || c.From.ID != "c" || c.To != ep {
					t.Fatalf("inbox frame %s (%v), want c's hello to %s", m.Payload, err, ep)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no hello")
			}
		}
		hello() // the joiner's link is attached: what the seed publishes reaches it
		answer := func(to string) {
			payload, _ := json.Marshal(ctrlMsg{Kind: "answer", From: MemberInfo{ID: "s", Endpoint: ep}, To: ep, For: to})
			seed.Publish(MembershipTopic, payload)
		}
		answer("d")
		if err := obs.WaitJoined(200 * time.Millisecond); err == nil {
			t.Fatal("an answer to another joiner's hello marked the seed answered")
		}
		hello() // sent again, the first still unanswered
		answer("c")
		if err := obs.WaitJoined(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
