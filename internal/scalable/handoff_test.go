package scalable

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
)

// memberOptions are the options of one cluster member over a partition
// engine on the shared journal base: every member can open any partition's
// segment, which is what a handoff replays.
func memberOptions(t *testing.T, id string, parts int, journal string, join ...string) AggregatorOptions {
	t.Helper()
	engine, err := eventstore.NewShardedClosed(parts, eventstore.Options{JournalPath: journal, Sync: eventstore.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return AggregatorOptions{
		ID:                id,
		Endpoint:          fmt.Sprintf("inproc://membertest-%p-%s-%d", t, id, time.Now().UnixNano()),
		Join:              join,
		Engine:            engine,
		HeartbeatInterval: 10 * time.Millisecond,
		FailAfter:         60 * time.Millisecond,
	}
}

// startMember builds and starts a cluster member.
func startMember(t *testing.T, opts AggregatorOptions) *Aggregator {
	t.Helper()
	n, err := NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		n.Close()
		t.Fatal(err)
	}
	return n
}

// startNode builds and starts a member for the handoff tests.
func startNode(t *testing.T, id string, parts int, journal string, collectors []string, join ...string) *Aggregator {
	t.Helper()
	opts := memberOptions(t, id, parts, journal, join...)
	opts.CollectorEndpoints = collectors
	opts.EventOverhead = time.Nanosecond
	return startMember(t, opts)
}

// TestNodeHandoffContinuity drives routed batches at a two-node cluster,
// kills the owner of a partition, and verifies the survivor recovers the
// partition's journal segment and continues its sequence lane with no
// loss, duplication, or gap.
func TestNodeHandoffContinuity(t *testing.T) {
	const parts = 4
	journal := filepath.Join(t.TempDir(), "journal")
	col := msgq.NewPub(msgq.WithBlockOnFull())
	colEP := fmt.Sprintf("inproc://membertest-%p-col", t)
	if err := col.Bind(colEP); err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	n0 := startNode(t, "n0", parts, journal, []string{colEP})
	defer n0.Close()
	n1 := startNode(t, "n1", parts, journal, []string{colEP}, n0.Endpoint())
	defer n1.Close()
	for _, n := range []*Aggregator{n0, n1} {
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

	nodeFor := map[string]*Aggregator{"n0": n0, "n1": n1}
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
				for _, n := range []*Aggregator{n0, n1} {
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

	got := recoverAll(t, n0)
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
	colEP := fmt.Sprintf("inproc://membertest-%p-col", t)
	if err := col.Bind(colEP); err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	n0 := startNode(t, "n0", parts, journal, []string{colEP})
	defer n0.Close()
	if len(n0.OwnedPartitions()) != parts {
		t.Fatalf("founding node owns %v", n0.OwnedPartitions())
	}

	live := []*Aggregator{n0}
	nodeFor := map[string]*Aggregator{"n0": n0}
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
	var n1 *Aggregator
	for i := 0; i < total; i++ {
		if i == 50 {
			n1 = startNode(t, "n1", parts, journal, []string{colEP}, n0.Endpoint())
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
		lists = append(lists, recoverAll(t, n))
	}
	got := eventstore.MergeBySeq(lists)
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

// A member whose intake stalls for several stall bounds while batches are
// forwarded to it loses none of them, over TCP: the forwarding member counts
// a forward handed on once it is queued, and the collector behind it has
// moved on, so its publisher holds the owner's routed inbox instead of
// evicting it and discarding the queue. Every forwarded event is stored
// once, by the owner.
func TestForwardToStalledOwnerLosesNothing(t *testing.T) {
	const parts, batches, batchSize = 4, 240, 512
	stall := 4 * pipeline.StallBound
	journal := filepath.Join(t.TempDir(), "journal")
	col := msgq.NewPub(msgq.WithBlockOnFull())
	colEP := fmt.Sprintf("inproc://forwardstall-%p-col", t)
	if err := col.Bind(colEP); err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	member := func(id string, join ...string) *Aggregator {
		opts := memberOptions(t, id, parts, journal, join...)
		opts.Endpoint = "tcp://127.0.0.1:0"
		opts.CollectorEndpoints = []string{colEP}
		opts.EventOverhead = time.Nanosecond
		opts.QueueSize = 4
		// No failover in this test: a loaded host must not fake a death.
		opts.HeartbeatInterval, opts.FailAfter = 50*time.Millisecond, 10*time.Second
		return startMember(t, opts)
	}
	n0 := member("n0")
	defer n0.Close()
	n1 := member("n1", n0.Endpoint())
	defer n1.Close()
	part := -1
	for deadline := time.Now().Add(5 * time.Second); part < 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no partition settled on n1: n0=%v n1=%v", n0.OwnedPartitions(), n1.OwnedPartitions())
		}
		if len(n0.OwnedPartitions())+len(n1.OwnedPartitions()) != parts {
			continue
		}
		for _, p := range n1.OwnedPartitions() {
			if n0.Membership().Assignment().OwnerOf(p) == "n1" {
				part = p
			}
		}
	}

	// Every batch goes to n0's inbox for a partition n1 owns: n0 forwards it.
	pad := strings.Repeat("x", 160) // big frames outgrow the loopback buffers
	payloads := make([][]byte, batches)
	for b := range payloads {
		evs := make([]events.Event, batchSize)
		for i := range evs {
			evs[i] = events.Event{Path: fmt.Sprintf("/fwd/%s%06d", pad, b*batchSize+i), Op: events.OpCreate, Root: "/mnt", Source: "test"}
		}
		payloads[b] = eventstest.WireBatch(t, evs, 0, nil)
	}
	go n1.throttles[part].Spend(stall) // n1's lane, and so its intake, stops
	began := time.Now()
	for _, payload := range payloads {
		if col.PublishCtx(context.Background(), msgq.NodeTopic("n0", part), payload) != 1 {
			t.Fatal("n0's intake is not subscribed")
		}
	}
	if took := time.Since(began); took < pipeline.StallBound {
		t.Fatalf("the forwards took %v: the owner's stall never reached the forwarding member", took.Round(time.Millisecond))
	}
	want := uint64(batches * batchSize)
	for deadline := time.Now().Add(20 * time.Second); n1.Stats().Stored < want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			break
		}
	}
	if got := n1.Stats().Stored; got != want || n0.Stats().Stored != 0 {
		t.Fatalf("stored n0=%d n1=%d, want n1=%d", n0.Stats().Stored, got, want)
	}
	if n := n0.pub.Evicted(); n != 0 {
		t.Errorf("n0 evicted %d subscribers", n)
	}
	seen := map[string]bool{}
	for _, e := range recoverAll(t, n1) {
		if seen[e.Path] {
			t.Fatalf("event %q stored twice", e.Path)
		}
		seen[e.Path] = true
	}
	if len(seen) != int(want) {
		t.Fatalf("n1 holds %d distinct events, want %d", len(seen), want)
	}
}
