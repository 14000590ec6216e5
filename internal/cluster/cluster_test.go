package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/eventstore"
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

// startNode builds and starts a Node for handoff tests.
func startNode(t *testing.T, id string, parts int, journal string, collectors []string, join ...string) *Node {
	t.Helper()
	n, err := NewNode(NodeOptions{
		ID:                 id,
		Endpoint:           fmt.Sprintf("inproc://nodetest-%p-%s", t, id),
		Join:               join,
		CollectorEndpoints: collectors,
		Parts:              parts,
		Store:              eventstore.Options{JournalPath: journal, Sync: eventstore.SyncAlways},
		EventOverhead:      time.Nanosecond,
		HeartbeatInterval:  10 * time.Millisecond,
		FailAfter:          60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		n.Close()
		t.Fatal(err)
	}
	return n
}

// TestNodeHandoffContinuity drives routed batches at a two-node cluster,
// kills the owner of a partition, and verifies the survivor recovers the
// partition's journal segment and continues its sequence lane with no
// loss, duplication, or gap.
func TestNodeHandoffContinuity(t *testing.T) {
	const parts = 4
	journal := filepath.Join(t.TempDir(), "journal")
	col := msgq.NewPub(msgq.WithBlockOnFull())
	colEP := fmt.Sprintf("inproc://nodetest-%p-col", t)
	if err := col.Bind(colEP); err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	n0 := startNode(t, "n0", parts, journal, []string{colEP})
	defer n0.Close()
	n1 := startNode(t, "n1", parts, journal, []string{colEP}, n0.CtlEndpoint())
	defer n1.Close()
	for _, n := range []*Node{n0, n1} {
		if err := n.Membership().WaitMembers(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitOwnedTotal := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(n0.OwnedPartitions())+len(n1.OwnedPartitions()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("owned partitions: n0=%v n1=%v, want %d total",
					n0.OwnedPartitions(), n1.OwnedPartitions(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitOwnedTotal(parts)

	nodeFor := map[string]*Node{"n0": n0, "n1": n1}
	publish := func(phase string, count int) map[string]bool {
		t.Helper()
		paths := map[string]bool{}
		for i := 0; i < count; i++ {
			path := fmt.Sprintf("/%s/f%03d", phase, i)
			p := eventstore.PartitionForPath(path, parts)
			payload := eventstest.WireBatch(t, []events.Event{{Path: path, Op: events.OpCreate, Root: "/mnt", Source: "test"}}, 0, nil)
			// Retry-until-delivered with owner re-resolution: the same
			// loop the routing collector runs.
			deadline := time.Now().Add(5 * time.Second)
			for {
				owner := ""
				for _, n := range []*Node{n0, n1} {
					if len(n.OwnedPartitions()) > 0 {
						owner = n.Membership().Assignment().OwnerOf(p)
						break
					}
				}
				if nd := nodeFor[owner]; nd != nil {
					if delivered := col.PublishCtx(context.Background(), msgq.NodeTopic(owner, p), payload); delivered > 0 {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("could not deliver %s to partition %d owner", path, p)
				}
				time.Sleep(2 * time.Millisecond)
			}
			paths[path] = true
		}
		return paths
	}

	waitStored := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for n0.Stats().Stored+n1.Stats().Stored < want {
			if time.Now().After(deadline) {
				t.Fatalf("stored %d+%d, want %d", n0.Stats().Stored, n1.Stats().Stored, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	phase1 := publish("one", 40)
	waitStored(40)

	// Kill n1 (no leave). n0's failure detector must hand its partitions
	// over by journal replay.
	killed := n1
	nodeFor["n1"] = nil
	killed.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for len(n0.OwnedPartitions()) != parts {
		if time.Now().After(deadline) {
			t.Fatalf("survivor owns %v after kill", n0.OwnedPartitions())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := n0.Stats().Handoffs; h == 0 {
		t.Fatal("survivor recorded no handoffs")
	}

	phase2 := publish("two", 40)
	waitStored(80)

	got, err := n0.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 80 {
		t.Fatalf("recovered %d events, want 80", len(got))
	}
	seen := map[string]bool{}
	lastByPart := map[int]uint64{}
	for _, e := range got {
		if seen[e.Path] {
			t.Fatalf("duplicate event %q", e.Path)
		}
		seen[e.Path] = true
		part := int(e.Seq % parts)
		if want := eventstore.PartitionForPath(e.Path, parts); part != want {
			t.Fatalf("event %q seq %d in lane %d, want %d", e.Path, e.Seq, part, want)
		}
		if prev, ok := lastByPart[part]; ok && e.Seq != prev+parts {
			t.Fatalf("lane %d: seq %d after %d (gap or overlap across handoff)", part, e.Seq, prev)
		}
		lastByPart[part] = e.Seq
	}
	for path := range phase1 {
		if !seen[path] {
			t.Fatalf("lost pre-handoff event %q", path)
		}
	}
	for path := range phase2 {
		if !seen[path] {
			t.Fatalf("lost post-handoff event %q", path)
		}
	}
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

// TestNodeJoinFencedHandoff drives routed traffic at a running single
// node while a second node joins and takes over its rendezvous share of
// the partitions — the join-direction handoff, where the old owner is
// alive and still appending. The fence (new owner waits for the old
// owner's release broadcast before replaying the journal segment) is
// what makes every sequence lane stay gap- and duplicate-free.
func TestNodeJoinFencedHandoff(t *testing.T) {
	const parts = 4
	const total = 200
	journal := filepath.Join(t.TempDir(), "journal")
	col := msgq.NewPub(msgq.WithBlockOnFull())
	colEP := fmt.Sprintf("inproc://nodetest-%p-col", t)
	if err := col.Bind(colEP); err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	n0 := startNode(t, "n0", parts, journal, []string{colEP})
	defer n0.Close()
	if len(n0.OwnedPartitions()) != parts {
		t.Fatalf("founding node owns %v", n0.OwnedPartitions())
	}

	live := []*Node{n0}
	nodeFor := map[string]*Node{"n0": n0}
	publish := func(path string) {
		t.Helper()
		p := eventstore.PartitionForPath(path, parts)
		payload := eventstest.WireBatch(t, []events.Event{{Path: path, Op: events.OpCreate, Root: "/mnt", Source: "test"}}, 0, nil)
		deadline := time.Now().Add(5 * time.Second)
		for {
			owner := live[0].Membership().Assignment().OwnerOf(p)
			if nd := nodeFor[owner]; nd != nil {
				if delivered := col.PublishCtx(context.Background(), msgq.NodeTopic(owner, p), payload); delivered > 0 {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("could not deliver %s to partition %d owner", path, p)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Traffic flows while the second node joins: the first 50 events land
	// before the join, the rest race the rebalance.
	var n1 *Node
	for i := 0; i < total; i++ {
		if i == 50 {
			n1 = startNode(t, "n1", parts, journal, []string{colEP}, n0.CtlEndpoint())
			defer n1.Close()
			live = append(live, n1)
			nodeFor["n1"] = n1
		}
		publish(fmt.Sprintf("/join/f%04d", i))
	}

	// The cluster must converge on a 2/2 split with all events stored.
	deadline := time.Now().Add(5 * time.Second)
	for {
		o0, o1 := len(n0.OwnedPartitions()), len(n1.OwnedPartitions())
		stored := n0.Stats().Stored + n1.Stats().Stored
		if o0 == parts/2 && o1 == parts/2 && stored >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: owned n0=%d n1=%d stored=%d/%d", o0, o1, stored, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := n1.Stats().Handoffs; h == 0 {
		t.Fatal("joiner recorded no handoffs")
	}

	var lists [][]events.Event
	for _, n := range live {
		l, err := n.Since(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, l)
	}
	got := eventstore.MergeBySeq(lists, 0)
	if len(got) != total {
		t.Fatalf("recovered %d events, want %d", len(got), total)
	}
	seen := map[string]bool{}
	lastByPart := map[int]uint64{}
	for _, e := range got {
		if seen[e.Path] {
			t.Fatalf("duplicate event %q", e.Path)
		}
		seen[e.Path] = true
		part := int(e.Seq % parts)
		if want := eventstore.PartitionForPath(e.Path, parts); part != want {
			t.Fatalf("event %q seq %d in lane %d, want %d", e.Path, e.Seq, part, want)
		}
		if prev, ok := lastByPart[part]; ok && e.Seq != prev+parts {
			t.Fatalf("lane %d: seq %d after %d (gap or overlap across join handoff)", part, e.Seq, prev)
		}
		lastByPart[part] = e.Seq
	}
}
