package scalable

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
)

// heldRoute is a Router whose owners stay unassigned until released: the
// collector holds its sealed batches and purges nothing, as during a
// cluster handoff, so a test can attach every consumer to an idle pipeline
// and then let a Changelog backlog through in full blocks. Past the
// release it is the collector's own route.
type heldRoute struct {
	topics   topicRoute
	released *atomic.Bool
}

func (r heldRoute) Parts() int { return r.topics.Parts() }
func (r heldRoute) OwnerTopic(p int) (string, bool) {
	return r.topics[p], r.released.Load()
}

// leaseShape is how the rig's batches cross from collector to aggregator.
type leaseShape struct {
	name  string
	topic string // the collector's own topic
	// route is the collector's partition count, parts the aggregator's.
	route, parts int
}

// leaseShapes are the ways a batch reaches the store lanes: whole on its
// MDT's topic; cut by path hash at the collector into per-partition
// topics; and whole on a topic naming neither, into a partitioned
// aggregator — a source that goes whole to one partition.
var leaseShapes = []leaseShape{
	{"P=1", TopicPrefix + "mdt0", 1, 1},
	{"P=2", TopicPrefix + "mdt0", 2, 2},
	{"foreign topic", TopicPrefix + "mount.lease", 1, 2},
}

// leaseRig is one MDT's collector → a classic aggregator, composed by hand
// so the tests reach the pools, with the collector held until release.
type leaseRig struct {
	cluster *lustre.Cluster
	log     *lustre.Changelog
	col     *Collector
	agg     *Aggregator
	release func()
}

// newLeaseRig writes a backlog of batches×batchSize create records and
// builds the held pipeline over it; each publisher binds a loopback TCP
// port when its flag is set and an in-process name otherwise.
func newLeaseRig(t *testing.T, shape leaseShape, batches, batchSize int, colTCP, aggTCP bool) *leaseRig {
	t.Helper()
	r := &leaseRig{cluster: testCluster(1)}
	cl := r.cluster.Client()
	for i := 0; i < batches*batchSize; i++ {
		if err := cl.Create(fmt.Sprintf("/f%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r.log, _ = r.cluster.Changelog(0)
	released := new(atomic.Bool)
	r.release = func() { released.Store(true) }
	endpoint := func(role string, tcp bool) string {
		if tcp {
			return "tcp://127.0.0.1:0"
		}
		return fmt.Sprintf("inproc://lease-%s-%p", role, r)
	}
	var err error
	r.col, err = NewCollector(CollectorOptions{
		Cluster: r.cluster, MountPoint: "/mnt/lustre", CacheSize: 1000, BatchSize: batchSize,
		Endpoint:      endpoint("col", colTCP),
		Router:        heldRoute{topics: partitionRoute(shape.topic, shape.route), released: released},
		EventOverhead: time.Nanosecond, CacheLookupCost: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.col.Close)
	r.agg, err = NewAggregator(AggregatorOptions{
		CollectorEndpoints: []string{r.col.Endpoint()}, Endpoint: endpoint("agg", aggTCP), EventOverhead: time.Nanosecond,
		StorePartitions: shape.parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.agg.Close)
	return r
}

// consumer attaches a consumer at endpoint, closed before the tiers it
// reads from (cleanups run last-in first-out).
func (r *leaseRig) consumer(t *testing.T, endpoint string, buffer int) *Consumer {
	t.Helper()
	con, err := NewConsumer(ConsumerOptions{
		AggregatorEndpoint: endpoint, Filter: iface.Filter{Recursive: true}, Recover: r.agg,
		Buffer: buffer, EventOverhead: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(con.Close)
	return con
}

// collect drains con until want events arrived and nothing more follows;
// one too many is as wrong as one too few.
func collect(t *testing.T, con *Consumer, want int) []events.Event {
	t.Helper()
	got := drainUntil(con, want, 60*time.Second)
	if len(got) != want {
		t.Fatalf("delivered %d events, want %d", len(got), want)
	}
	return got
}

// checkBacklog asserts got is the rig's backlog of "/f%06d" creates, each
// exactly once and none of them recycled memory, in Changelog order and
// with rising seqs within each of the parts store partitions (Seq % parts)
// — the order a partitioned tier keeps.
func checkBacklog(t *testing.T, name string, got []events.Event, parts int) {
	t.Helper()
	seen := make([]bool, len(got))
	lastSeq, lastFile := make([]uint64, parts), make([]int, parts)
	for i := range lastFile {
		lastFile[i] = -1
	}
	for i, e := range got {
		if eventstest.Poisoned(e) {
			t.Fatalf("%s consumer: event %d is recycled memory: %+v", name, i, e)
		}
		file, err := strconv.Atoi(strings.TrimPrefix(e.Path, "/f"))
		if err != nil || file < 0 || file >= len(got) || seen[file] {
			t.Fatalf("%s consumer: event %d is %q, not one of the backlog's files delivered once", name, i, e.Path)
		}
		seen[file] = true
		lane := e.Seq % uint64(parts)
		if file <= lastFile[lane] || e.Seq <= lastSeq[lane] {
			t.Fatalf("%s consumer: event %d is %q seq %d after %s seq %d in partition %d, want a later file and seq",
				name, i, e.Path, e.Seq, fmt.Sprintf("/f%06d", lastFile[lane]), lastSeq[lane], lane)
		}
		lastSeq[lane], lastFile[lane] = e.Seq, file
	}
}

// TestRecycledBlocksPoisoned runs a backlog through collector → aggregator →
// two consumers with every pool overwriting a block with a sentinel before
// taking it back, and — where a hop is TCP — every connection doing the same
// to a payload buffer its receiver said Done for. Memory that went back
// while anything downstream could still read it — the aggregator's clone
// sharing the collector's arena, its decoded block reading a received
// payload, the store copying either, the TCP writer holding the clone's wire
// image, a consumer walking its seq column or cutting strings out of a
// payload — would deliver the sentinel, a foreign batch or nothing; every
// consumer must instead see exactly the events written, once, in order
// within each partition. Each case runs in every leaseShape: the blocks a
// collector cuts at the source are leased and poisoned like the rest.
func TestRecycledBlocksPoisoned(t *testing.T) {
	for _, tc := range []struct {
		name         string
		colTCP       bool
		inproc, tcps int // consumers of each kind
	}{
		{"clone in, in-process and TCP out", false, 1, 1},
		{"TCP in, in-process and TCP out", true, 1, 1},
		{"clone in, two in-process consumers of one block", false, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range leaseShapes {
				t.Run(shape.name, func(t *testing.T) {
					testRecycledBlocksPoisoned(t, shape, tc.colTCP, tc.inproc, tc.tcps)
				})
			}
		})
	}
}

func testRecycledBlocksPoisoned(t *testing.T, shape leaseShape, colTCP bool, inproc, tcps int) {
	defer func(reset func(*events.Block)) { resetBlock = reset }(resetBlock)
	var poisoned atomic.Int64
	resetBlock = func(b *events.Block) {
		if b.Len() > 0 {
			poisoned.Add(1)
		}
		eventstest.Poison(b)
		b.Reset()
	}
	msgq.PoisonReturnedPayloads(eventstest.PoisonByte)
	defer msgq.PoisonReturnedPayloads(0)

	const batches, batchSize = 96, 64 // more than the queues and pools hold, so blocks come round again
	r := newLeaseRig(t, shape, batches, batchSize, colTCP, true)
	local := fmt.Sprintf("inproc://lease-agg-local-%p", r)
	if err := r.agg.pub.Bind(local); err != nil {
		t.Fatal(err)
	}
	consumers := map[string]*Consumer{}
	for i := 0; i < inproc; i++ {
		consumers[fmt.Sprintf("inproc %d", i)] = r.consumer(t, local, 0)
	}
	for i := 0; i < tcps; i++ {
		consumers[fmt.Sprintf("tcp %d", i)] = r.consumer(t, r.agg.Endpoint(), 0)
	}
	r.release()

	const want = batches * batchSize
	for name, con := range consumers {
		checkBacklog(t, name, collect(t, con, want), shape.parts)
	}
	if poisoned.Load() < batches {
		t.Errorf("%d filled blocks went back through a pool, want at least the %d collector blocks", poisoned.Load(), batches)
	}
}

// drainRig lets batches blocks of a held backlog through to a consumer
// that reads as fast as it is handed events, and returns the rig once the
// Changelog is empty.
func drainRig(t *testing.T, shape leaseShape, batches int, tcp bool) *leaseRig {
	t.Helper()
	const batchSize = 64
	r := newLeaseRig(t, shape, batches, batchSize, tcp, tcp)
	con := r.consumer(t, r.agg.Endpoint(), 0)
	r.release()
	collect(t, con, batches*batchSize)
	return r
}

// The stages and queues between a pool's Get and the lease's release can
// hold this many blocks at once at most — the collector's two stage
// queues, the aggregator's subscribe and store queues, the consumer's one
// — and a drain that never lets them fill builds far fewer.
const (
	stageDepth = 4*pipeline.DefaultBatchDepth + intakeDepth
	// A collector block is out until the consumer is done with the clone of
	// it: both subscription queues and every stage between them.
	collectorBlocksInFlight = 2*pipeline.DefaultAggregatorQueue + stageDepth
	// A clone is out from the store lane to the consumer's delivery.
	aggregatorBlocksInFlight = pipeline.DefaultAggregatorQueue + stageDepth
)

// A collector block comes back when the aggregator and every consumer of
// its clone are done — over TCP, when its wire image has been written: a
// 200-batch drain builds no more blocks than are ever in flight, where
// without the lease it built one per batch. The aggregator's seq-only
// clones (over TCP, its decode targets) come back when the consumers are
// done with them. Both hold in every leaseShape: a batch cut at the
// source is whole leased blocks, and the source block goes back at once.
func TestCollectorBlocksRecycle(t *testing.T)  { testBlocksRecycle(t, collectorBlocksInFlight) }
func TestAggregatorClonesRecycle(t *testing.T) { testBlocksRecycle(t, aggregatorBlocksInFlight) }

func testBlocksRecycle(t *testing.T, inFlight uint64) {
	const batches = 200
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			for _, shape := range leaseShapes {
				t.Run(shape.name, func(t *testing.T) {
					r := drainRig(t, shape, batches, transport == "tcp")
					built := r.col.pool.Built()
					if inFlight == aggregatorBlocksInFlight {
						built = r.agg.pool.Built()
					}
					if built >= batches || built > inFlight {
						t.Errorf("draining %d batches built %d blocks, want at most the %d in flight", batches, built, inFlight)
					}
					t.Logf("%d batches, %d blocks built", batches, built)
				})
			}
		})
	}
}

// The subscription queues are counted in blocks and are small, and the
// collector's is the one hop that blocks rather than evicts: with a
// subscriber of the collector stalled, its queue fills, the collector blocks
// in its publish, and what it has not handed over stays — unpurged — in the
// Changelog, not in RAM. Releasing the subscriber drains everything.
func TestFullQueueLeavesBacklogInChangelog(t *testing.T) {
	const batches, batchSize = 400, 64
	r := newLeaseRig(t, leaseShapes[0], batches, batchSize, false, false)
	stalled := msgq.NewSub(msgq.WithRecvBuffer(pipeline.DefaultAggregatorQueue)) // nobody reads it
	defer stalled.Close()
	stalled.Subscribe(TopicPrefix)
	if err := stalled.Connect(r.col.Endpoint()); err != nil {
		t.Fatal(err)
	}
	if err := stalled.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	con := r.consumer(t, r.agg.Endpoint(), 0)
	r.release()

	// The pipeline runs until the stalled queue is full, then stops.
	var published uint64
	for stable := 0; stable < 20; time.Sleep(10 * time.Millisecond) {
		if now := r.col.Stats().EventsPublished; now != published {
			published, stable = now, 0
		} else if now > 0 {
			stable++
		}
	}
	st := r.col.Stats()
	if inFlight, limit := int(st.EventsPublished)/batchSize, pipeline.DefaultAggregatorQueue; inFlight > limit {
		t.Errorf("the stalled subscriber's queue accepted %d blocks, want at most its %d", inFlight, limit)
	}
	if st.ChangelogLag == 0 || st.ChangelogLag != batches*batchSize-int(st.EventsPublished) {
		t.Errorf("Changelog retains %d records with %d of %d events accepted downstream; want exactly the rest", st.ChangelogLag, st.EventsPublished, batches*batchSize)
	}
	if depth, capacity := stalled.Depth(), stalled.Cap(); depth != capacity {
		t.Errorf("the stalled subscription queue holds %d of %d blocks, want it full", depth, capacity)
	}

	stalled.Close()
	checkBacklog(t, "consumer", collect(t, con, batches*batchSize), 1)
	deadline := time.Now().Add(20 * time.Second)
	for r.log.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Changelog still retains %d records after the consumer drained everything", r.log.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
