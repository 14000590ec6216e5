package scalable

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/msgq"
)

// drainUntil keeps draining until at least want events arrived or the
// deadline passes.
func drainUntil(con *Consumer, want int, deadline time.Duration) []events.Event {
	var got []events.Event
	dl := time.Now().Add(deadline)
	for len(got) < want && time.Now().Before(dl) {
		got = append(got, drainConsumer(con, 200*time.Millisecond)...)
	}
	return got
}

// TestAggregatorPartitionLanesPreserveOrder deploys a 4-partition
// aggregation tier over a 4-MDS cluster and asserts the ISSUE's ordering
// contract: events fan out across store lanes, yet within each partition
// the sequence numbers arrive in order, and causally ordered operations on
// one file (CREATE before MODIFY) are never reordered.
func TestAggregatorPartitionLanesPreserveOrder(t *testing.T) {
	cluster := testCluster(4)
	m, err := Deploy(cluster, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		StorePartitions: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if got := m.Aggregator.Partitions(); got != 4 {
		t.Fatalf("aggregator partitions = %d", got)
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
		if err := cl.Write(d+"/f", 8); err != nil {
			t.Fatal(err)
		}
	}
	const want = dirs * 3 // MKDIR + CREATE + MODIFY per directory
	got := drainUntil(con, want, 15*time.Second)
	if len(got) != want {
		t.Fatalf("events = %d, want %d", len(got), want)
	}

	// Per-partition order: within one lane (Seq % 4) sequence numbers
	// strictly increase in arrival order.
	lastSeq := map[uint64]uint64{}
	partsSeen := map[uint64]bool{}
	for _, e := range got {
		p := e.Seq % 4
		partsSeen[p] = true
		if e.Seq <= lastSeq[p] {
			t.Fatalf("partition %d reordered: seq %d after %d", p, e.Seq, lastSeq[p])
		}
		lastSeq[p] = e.Seq
	}
	if len(partsSeen) < 2 {
		t.Errorf("events landed in %d partition(s); want spread across lanes", len(partsSeen))
	}

	// Causal per-file order: CREATE precedes MODIFY for every file.
	state := map[string]events.Op{}
	for _, e := range got {
		if !strings.HasSuffix(e.Path, "/f") {
			continue
		}
		switch {
		case e.Op.Has(events.OpCreate):
			state[e.Path] = events.OpCreate
		case e.Op.Has(events.OpModify):
			if state[e.Path] != events.OpCreate {
				t.Fatalf("%s: MODIFY before CREATE", e.Path)
			}
		}
	}

	// The consumer's cursor vector tracks every lane it saw.
	vec := con.LastSeqVector()
	if len(vec) != 4 {
		t.Fatalf("consumer cursor vector = %v", vec)
	}
	for p, c := range vec {
		if c != lastSeq[uint64(p)] {
			t.Errorf("cursor[%d] = %d, want %d", p, c, lastSeq[uint64(p)])
		}
	}
	if st := m.Aggregator.Stats(); st.Partitions != 4 || st.Stored != uint64(want) {
		t.Errorf("aggregator stats: partitions=%d stored=%d", st.Partitions, st.Stored)
	}
}

// rawRecoveryResponse performs one recovery request and returns the exact
// bytes the server wrote back, captured off the wire.
func rawRecoveryResponse(t *testing.T, addr string, req msgq.Message) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var raw bytes.Buffer
	r := bufio.NewReader(io.TeeReader(conn, &raw))
	w := bufio.NewWriter(conn)
	if err := msgq.WriteFrame(w, req); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := msgq.ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if f.Topic == recoveryEndTopic || f.Topic == recoveryErrTopic {
			return raw.Bytes()
		}
	}
}

// TestShardedOneRecoveryWireIdentical pins the acceptance criterion that
// StorePartitions=1 reproduces the single-store recovery wire protocol
// byte for byte: a Sharded(1) engine and a plain Store loaded with the
// same events serve identical responses to identical requests.
func TestShardedOneRecoveryWireIdentical(t *testing.T) {
	store, err := eventstore.New(eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sharded, err := eventstore.NewSharded(1, eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < 2500; i++ {
		e := events.Event{
			Root: "/mnt/lustre", Op: events.OpCreate,
			Path: fmt.Sprintf("/wire/f%04d", i),
			Time: base.Add(time.Duration(i) * time.Millisecond), Source: "mdt0",
		}
		if _, err := store.Append(e); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Partition(0).Append(e); err != nil {
			t.Fatal(err)
		}
	}
	srvStore, err := NewRecoveryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvStore.Close()
	srvSharded, err := NewRecoveryServer(sharded, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvSharded.Close()

	// Multiple resume points, including mid-page and past-the-end; 2500
	// events also forces multi-batch paging (recoveryBatchMax = 1024).
	for _, seq := range []uint64{0, 1, 1023, 1024, 2000, 2500, 9999} {
		req := msgq.Message{Topic: recoveryReqTopic, Payload: encodeSeq(seq)}
		a := rawRecoveryResponse(t, srvStore.Addr(), req)
		b := rawRecoveryResponse(t, srvSharded.Addr(), req)
		if !bytes.Equal(a, b) {
			t.Fatalf("since=%d: responses differ (%d vs %d bytes)", seq, len(a), len(b))
		}
	}
	// A single-cursor vector request degrades to the classic query on both.
	scalar := rawRecoveryResponse(t, srvStore.Addr(), msgq.Message{Topic: recoveryReqTopic, Payload: encodeSeq(7)})
	vec := rawRecoveryResponse(t, srvSharded.Addr(), msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector([]uint64{7})})
	if !bytes.Equal(scalar, vec) {
		t.Fatalf("sincev [7] differs from since 7 (%d vs %d bytes)", len(scalar), len(vec))
	}
}

// The recovery stream is pinned byte for byte: this is the digest of what the
// server sent for these 2500 events (three pages, renames among them) when
// it encoded each page with the reference codec, before pages went through
// a reused Block.
func TestRecoveryStreamGoldenDigest(t *testing.T) {
	store, err := eventstore.New(eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < 2500; i++ {
		e := events.Event{
			Root: "/mnt/lustre", Op: events.OpCreate, Path: fmt.Sprintf("/wire/f%04d", i),
			Time: base.Add(time.Duration(i) * time.Millisecond), Source: "mdt0",
		}
		if i%7 == 0 {
			e.Op, e.OldPath, e.Cookie = events.OpMovedTo, e.Path+".old", uint32(i)
		}
		if _, err := store.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewRecoveryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw := rawRecoveryResponse(t, srv.Addr(), msgq.Message{Topic: recoveryReqTopic, Payload: encodeSeq(0)})
	const want = "4c4390e012a3bd91262c7da4def919e6cf314c2b2ae37691b243cb1551921e97"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); len(raw) != 147932 || got != want {
		t.Fatalf("recovery stream: %d bytes, sha256 %s; want 147932 bytes, %s", len(raw), got, want)
	}
}

// TestPartitionedCrashRestartRecovery kills a partitioned store
// mid-stream, reopens it from its journal segments, and verifies that
// partition-aware recovery — both direct RecoveryClient.SinceVector calls
// from several concurrent clients and a consumer resuming via
// NewConsumerVector — replays exactly the missed suffix with no
// duplicates, and that the redeployed tier continues every lane's seqs.
func TestPartitionedCrashRestartRecovery(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "agg.journal")
	cluster := testCluster(4)
	m, err := Deploy(cluster, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		Store:           eventstore.Options{JournalPath: jp, Sync: eventstore.SyncAlways},
		StorePartitions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Client()
	const dirs = 4
	for i := 0; i < dirs; i++ {
		if err := cl.Mkdir(fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := cl.Create(fmt.Sprintf("/d%d/f%d", i%dirs, i)); err != nil {
			t.Fatal(err)
		}
	}
	const phase1 = dirs + 8
	if got := drainUntil(con, phase1, 15*time.Second); len(got) != phase1 {
		t.Fatalf("phase 1: %d events, want %d", len(got), phase1)
	}
	cursors := con.LastSeqVector()
	if len(cursors) != 2 {
		t.Fatalf("cursor vector = %v, want 2 lanes", cursors)
	}
	con.Close() // the consumer goes down...

	// ...and the cluster keeps producing. The aggregator stores these
	// events with nobody subscribed.
	for i := 8; i < 16; i++ {
		if err := cl.Create(fmt.Sprintf("/d%d/g%d", i%dirs, i)); err != nil {
			t.Fatal(err)
		}
	}
	const total = phase1 + 8
	deadline := time.Now().Add(15 * time.Second)
	for m.Aggregator.Stats().Stored < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := m.Aggregator.Stats().Stored; st != total {
		t.Fatalf("aggregator stored %d, want %d", st, total)
	}

	// Crash: the journal segments are copied while the deployment still
	// runs — SyncAlways means every stored event already reached them — and
	// everything from here on works on the copies, never on files a clean
	// Close flushed. Reopening them must recover the full history.
	crashed := filepath.Join(t.TempDir(), "agg.journal")
	for p := 0; p < 2; p++ {
		seg, err := os.ReadFile(fmt.Sprintf("%s.p%d", jp, p))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fmt.Sprintf("%s.p%d", crashed, p), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	last := m.Aggregator.LastSeqVector()
	m.Close()
	storeOpts := eventstore.Options{JournalPath: crashed, Sync: eventstore.SyncAlways}
	eng2, err := eventstore.OpenSharded(2, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if all, err := eng2.SinceVector([]uint64{0, 0}, 0); err != nil || len(all) != total {
		t.Fatalf("reopened store holds %d events, %v; want %d", len(all), err, total)
	}

	// Several consumers recover concurrently from the reopened store;
	// each must see exactly the 8-event suffix missed after the cursor
	// snapshot, with no duplicates.
	srv, err := NewRecoveryServer(eng2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	results := make([][]events.Event, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := append([]uint64(nil), cursors...)
			got, err := NewRecoveryClient(srv.Addr()).SinceVector(c, 0)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if len(got) != 8 {
			t.Fatalf("client %d replayed %d events, want 8", i, len(got))
		}
		seen := map[string]bool{}
		for _, e := range got {
			if p := e.Seq % 2; e.Seq <= cursors[p] {
				t.Errorf("client %d: replayed already-consumed seq %d", i, e.Seq)
			}
			if !strings.Contains(e.Path, "/g") {
				t.Errorf("client %d: unexpected replayed path %s", i, e.Path)
			}
			if seen[e.Path] {
				t.Errorf("client %d: duplicate %s", i, e.Path)
			}
			seen[e.Path] = true
		}
	}

	// Finally the full restart path: redeploy on the crashed journal —
	// Deploy reopens it itself — and resume a consumer from the saved
	// cursor vector. It replays the missed suffix once and nothing else
	// (delivered Changelog records were purged, so collectors do not
	// re-emit them).
	srv.Close()
	eng2.Close()
	m2, err := Deploy(cluster, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		Store:           storeOpts,
		StorePartitions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.Close)
	con2, err := m2.NewConsumerVector(iface.Filter{Recursive: true}, cursors)
	if err != nil {
		t.Fatal(err)
	}
	defer con2.Close()
	got := drainUntil(con2, 8, 15*time.Second)
	if len(got) != 8 {
		t.Fatalf("resumed consumer replayed %d events, want 8", len(got))
	}
	seen := map[string]bool{}
	for _, e := range got {
		if !strings.Contains(e.Path, "/g") || seen[e.Path] {
			t.Errorf("resumed consumer: unexpected or duplicate %s", e.Path)
		}
		seen[e.Path] = true
	}

	// New events after the restart continue each lane one stride past what
	// the first deployment stored last; a store that restarted its lanes
	// would reissue seqs the consumer already holds.
	for i := 16; i < 24; i++ {
		if err := cl.Create(fmt.Sprintf("/d%d/h%d", i%dirs, i)); err != nil {
			t.Fatal(err)
		}
	}
	first := make([]uint64, 2)
	for _, e := range drainUntil(con2, 8, 15*time.Second) {
		if p := e.Seq % 2; first[p] == 0 {
			first[p] = e.Seq
		}
	}
	for p := range first {
		if first[p] != last[p]+2 {
			t.Errorf("lane %d: first seq after the restart = %d, want %d (first deployment ended at %d)", p, first[p], last[p]+2, last[p])
		}
	}
}

// TestTopicPartition pins the aggregator's one partition rule — the topic
// names the partition, the batch stays whole — and that every topic a
// collector can publish maps into [0, P): the intake has no other outcome,
// so no batch is dropped for its topic.
func TestTopicPartition(t *testing.T) {
	hashed := func(topic string, parts int) int { return eventstore.PartitionForPath(topic, parts) }
	for _, tc := range []struct {
		why   string
		topic string
		parts int
		want  int
	}{
		{"member inbox", msgq.NodeTopic("n1", 3), 4, 3},
		{"per-MDT topic", TopicPrefix + "mdt5", 4, 1},
		{"per-MDT topic, one partition", TopicPrefix + "mdt5", 1, 0},
		{"mount cut at the source", msgq.PartitionTopic(mountTopic("logs"), 2), 4, 2},
		{"MDT cut at the source", msgq.PartitionTopic(TopicPrefix+"mdt0", 1), 2, 1},
		{"mount named like a suffix, in range", mountTopic("p3"), 4, 3},
		{"mount named with a suffix, in range", mountTopic("x.p1"), 2, 1},
		{"mount named like a suffix, out of range", mountTopic("p3"), 2, hashed(mountTopic("p3"), 2)},
		{"inbox index past P", msgq.NodeTopic("n0", 7), 4, hashed(msgq.NodeTopic("n0", 7), 4)},
		{"foreign topic", TopicPrefix + "external", 4, hashed(TopicPrefix+"external", 4)},
		{"foreign topic, one partition", TopicPrefix + "external", 1, 0},
	} {
		if got := topicPartition(tc.topic, tc.parts); got != tc.want {
			t.Errorf("%s: topicPartition(%q, %d) = %d, want %d", tc.why, tc.topic, tc.parts, got, tc.want)
		}
	}

	var topics []string
	for route := 1; route <= 6; route++ {
		for mdt := 0; mdt < 9; mdt++ {
			topics = append(topics, partitionRoute(fmt.Sprintf("%smdt%d", TopicPrefix, mdt), route)...)
		}
		for _, name := range []string{"root", "logs", "a_b", "p", "p3", "p-1", "x.p1", ".p", "mdt2"} {
			topics = append(topics, partitionRoute(mountTopic(name), route)...)
		}
		for p := 0; p < route; p++ {
			topics = append(topics, msgq.NodeTopic("n0", p))
		}
	}
	for parts := 1; parts <= 5; parts++ {
		for _, topic := range topics {
			if got := topicPartition(topic, parts); got < 0 || got >= parts {
				t.Errorf("topicPartition(%q, %d) = %d, outside [0, %d)", topic, parts, got, parts)
			}
		}
	}
}
