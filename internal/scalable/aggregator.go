package scalable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/cluster"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pace"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/telemetry"
)

// Aggregator topics.
const (
	// AggTopic is the topic the aggregator publishes merged batches on.
	// With StorePartitions > 1 each partition publishes on
	// msgq.PartitionTopic(AggTopic, p) = "agg.events.p<p>"; prefix
	// subscription means consumers subscribed to AggTopic receive every
	// partition without knowing the count.
	AggTopic = "agg.events"
)

// resetBlock is the reset hook of every block pool in this package. It is a
// variable for one reason: the poisoning test swaps in a hook that first
// overwrites the block with a sentinel, so a reader that outlives its lease
// delivers garbage the test can see instead of stale bytes it cannot.
var resetBlock = (*events.Block).Reset

// newPoolBlock sizes the blocks collectors fill for a full Changelog read
// with a typical path footprint. They are published on lease
// (msgq.Pub.PublishLeasedCtx) and come back to the pool when the last
// receiver is done, so a steady drain builds about as many as the queues
// downstream hold (pipeline.DefaultAggregatorQueue) and then stops.
func newPoolBlock() *events.Block {
	return events.NewBlock(pipeline.DefaultChangelogBatch, 32<<10)
}

// intakeDepth is the aggregator's subscribe queue, in blocks: two stage
// queues deep, the slack that sat between intake and the store lanes while
// a partition stage stood between them. At one stage's depth the
// event-journey benchmark's hot_inproc cell ran about 6 % fewer events/s
// (2-core Xeon, five pairs).
const intakeDepth = 2 * pipeline.DefaultBatchDepth

// newTargetBlock is what the aggregator and consumer pools hand out: decode
// and clone targets. They start bare because everything they hold arrives
// with the batch — a decode aliases the payload as its arena and sizes its
// columns from the header, a clone shares its source's columns and copies
// only seqs. What they grow of their own (a decode's columns, a clone's seq
// column, a re-encoded wire image) is kept across the lease that brings
// them back.
func newTargetBlock() *events.Block { return events.NewBlock(0, 0) }

// AggregatorOptions configures the aggregator service (which the paper
// deploys on the MGS). The fields from ID down make the aggregator one
// member of a clustered aggregation tier; left zero, it is the paper's
// single aggregator and none of the membership machinery exists.
type AggregatorOptions struct {
	// CollectorEndpoints are the publisher endpoints of every collector.
	// Required for a classic aggregator; a cluster member may attach its
	// collectors later (ConnectCollectors).
	CollectorEndpoints []string
	// Endpoint is where the aggregator's own publisher binds (default
	// "inproc://aggregator", "inproc://aggregator-<ID>" for a member). A
	// member's publisher also carries its membership broadcasts, and peers
	// subscribe to it for batches forwarded to a partition's new owner.
	Endpoint string
	// Engine is the reliable event store engine. Nil creates an unbounded
	// in-memory engine with StorePartitions shards (the paper uses MySQL
	// here). A cluster member opens and closes the engine's partitions as
	// ownership moves and closes the rest on shutdown; its
	// Options.JournalPath is the base every partition derives its
	// "<path>.p<i>" segment from, which is the handoff medium — shared or
	// replicated storage in a real deployment, one directory in tests.
	Engine *eventstore.Sharded
	// StorePartitions is the partition count for the default engine and
	// for the aggregation pipeline's store lanes (default
	// pipeline.DefaultStorePartitions = 1, which reproduces the paper's
	// single serial store thread). Ignored when Engine is set. Every
	// member of one cluster must use the same count.
	StorePartitions int
	// EventOverhead is the accounted aggregation cost per event
	// (default 500ns), spent on the owning partition's lane.
	EventOverhead time.Duration
	// QueueSize is the subscription buffer capacity in blocks — one message
	// carries one collector batch (default pipeline.DefaultAggregatorQueue).
	// It is the processing queue of §IV-2, not the backlog: once it is full
	// the collectors block and unread records wait in the Changelog.
	QueueSize int
	// Context aborts the aggregator when canceled (Close remains the
	// graceful path). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors the aggregator into the unified
	// registry under its root — "fsmon" for a classic aggregator,
	// "fsmon.cluster.<ID>" for a member: "<root>.aggregator.*" and the
	// engine under "<root>.store.*". Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger

	// ID names this aggregator as a cluster member (cluster.ValidID) and
	// switches it to clustered operation: it ingests the routed
	// "events.node.<ID>.p<part>" topics instead of the per-MDT ones, stores
	// only the partitions the assignment map gives it, and forwards batches
	// for any other partition to that partition's owner.
	ID string
	// Advertise, when non-empty, is the externally reachable host
	// substituted into the advertised publisher address — required when
	// Endpoint binds a wildcard address (0.0.0.0) that peers on other
	// machines cannot dial.
	Advertise string
	// Join lists publisher endpoints (Endpoint) of existing members; empty
	// founds a cluster.
	Join []string
	// HeartbeatInterval/FailAfter tune the membership failure detector.
	HeartbeatInterval time.Duration
	FailAfter         time.Duration
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	if o.Endpoint == "" {
		o.Endpoint = "inproc://aggregator"
		if o.ID != "" {
			o.Endpoint += "-" + o.ID
		}
	}
	if o.EventOverhead <= 0 {
		o.EventOverhead = 500 * time.Nanosecond
	}
	if o.QueueSize <= 0 {
		o.QueueSize = pipeline.DefaultAggregatorQueue
	}
	if o.StorePartitions <= 0 {
		o.StorePartitions = pipeline.DefaultStorePartitions
	}
	return o
}

// AggregatorStats is a snapshot of the aggregator's counters.
type AggregatorStats struct {
	Received  uint64
	Published uint64
	Stored    uint64
	// Partitions is the store-lane count.
	Partitions int
	// BusyTime sums the busy time across every store lane; Utilization
	// is the sum of per-lane utilizations, so with P partitions it
	// ranges up to P (like multi-core CPU usage).
	BusyTime    time.Duration
	Utilization float64
	Store       eventstore.Stats
	// Pipeline is the per-stage view (subscribe → store → republish).
	Pipeline []pipeline.Stats

	// PartitionsOwned is how many partitions the aggregator stores right
	// now: all of them for a classic aggregator, the assigned share for a
	// cluster member. The remaining fields are zero outside a cluster.
	PartitionsOwned int
	StraysForwarded uint64
	Handoffs        uint64
	Members         int
	Epoch           uint64
}

// Aggregator merges every collector's stream, persists it, and republishes
// it to consumers. Per §IV-2 it is multi-threaded, as a subscribe → store →
// republish pipeline: the intake reads each batch's partition off the topic
// it arrived on (topicPartition) and never splits a batch — the collector
// is the one place a batch is cut — each partition's store lane persists
// into its shard of the reliable engine (assigning the shard-tagged
// sequence numbers consumers use for recovery), and the republish stage
// publishes stamped batches on the partition's topic. Order is preserved
// within a partition — one lane owns each partition — while partitions
// proceed in parallel.
//
// The paper has one aggregator; a clustered deployment runs several of
// this same type, and what differs is only who stores a partition right
// now. A classic aggregator holds every partition for its whole life. A
// cluster member (AggregatorOptions.ID) holds the partitions the
// membership's assignment map gives it, takes the partition of a batch
// from the routed topic it arrived on, and forwards a batch for a
// partition it does not (or no longer does) hold to the current owner —
// the zero-loss path during a reassignment window (ownership.go).
type Aggregator struct {
	opts      AggregatorOptions
	sub       *msgq.Sub
	pub       *msgq.Pub
	engine    *eventstore.Sharded
	mem       *cluster.Membership // nil for a classic aggregator
	parts     int
	topics    topicRoute // republish topic per partition, built once
	ownStore  bool
	throttles []*pace.Throttle // one per store lane
	metrics   string           // telemetry root: "fsmon", "fsmon.cluster.<ID>" for a member

	pipe *pipeline.Pipeline
	pool *pipeline.Pool[events.Block] // blocks cycling through decode → store → republish
	// recycle is pool.Put as the release hook of a leased publish, bound
	// once: a method value built per batch would allocate.
	recycle func(*events.Block)

	own ownership // partition acquire/release state (cluster members only)

	received  atomic.Uint64
	published atomic.Uint64
	stored    atomic.Uint64
	strays    atomic.Uint64
	handoffs  atomic.Uint64

	slog             *slog.Logger
	storeUS          *telemetry.Histogram // per-batch store-lane wall time
	captureToStoreUS *telemetry.Histogram // capture stamp → store append
	republishUS      *telemetry.Histogram // capture stamp → republished
	aud              *telemetry.Audit     // delivery-conservation counters (nil = off)

	closeOnce sync.Once
}

// NewAggregator creates the aggregator. A classic aggregator is returned
// running. A cluster member is returned bound but not started, so that the
// deployment can wrap it in a recovery server and advertise that address
// (SetRecovery) before the first heartbeat carries it; call Start.
func NewAggregator(opts AggregatorOptions) (*Aggregator, error) {
	opts = opts.withDefaults()
	clustered := opts.ID != ""
	switch {
	case clustered && !cluster.ValidID(opts.ID):
		return nil, fmt.Errorf("scalable: invalid aggregator ID %q", opts.ID)
	case !clustered && len(opts.CollectorEndpoints) == 0:
		return nil, errors.New("scalable: AggregatorOptions.CollectorEndpoints is required")
	}
	engine, ownStore := opts.Engine, false
	if engine == nil {
		mk := eventstore.NewSharded
		if clustered {
			mk = eventstore.NewShardedClosed
		}
		var err error
		if engine, err = mk(opts.StorePartitions, eventstore.Options{}); err != nil {
			return nil, err
		}
		ownStore = true
	}
	parts := engine.Partitions()
	// A TCP subscriber's send queue no deeper than the subscription queues.
	// Unlike the collector's, it evicts a stalled subscriber (DESIGN.md,
	// "Slow subscribers").
	pub := msgq.NewPub(msgq.WithHWM(pipeline.DefaultAggregatorQueue))
	if err := pub.Bind(opts.Endpoint); err != nil {
		if ownStore {
			engine.Close()
		}
		return nil, err
	}
	a := &Aggregator{
		opts:      opts,
		sub:       msgq.NewSub(msgq.WithRecvBuffer(opts.QueueSize)),
		pub:       pub,
		engine:    engine,
		parts:     parts,
		topics:    partitionRoute(AggTopic, parts),
		ownStore:  ownStore,
		throttles: make([]*pace.Throttle, parts),
		pool:      pipeline.NewPool(newTargetBlock, resetBlock),
		metrics:   "fsmon",
	}
	a.recycle = a.pool.Put
	for i := range a.throttles {
		a.throttles[i] = pace.NewThrottle()
	}
	var err error
	if clustered {
		a.slog = telemetry.ComponentLogger(opts.Logger, "node."+opts.ID)
		a.metrics = "fsmon.cluster." + opts.ID
		a.sub.Subscribe(msgq.NodeSubscription(opts.ID))
		err = a.joinCluster()
	} else {
		a.slog = telemetry.ComponentLogger(opts.Logger, "aggregator")
		a.sub.Subscribe(TopicPrefix)
		err = a.Start()
	}
	if err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// Start connects the intake and builds the pipeline; a cluster member also
// applies the founding assignment and begins heartbeating. NewAggregator
// has already called it for a classic aggregator.
func (a *Aggregator) Start() error {
	if err := a.ConnectCollectors(a.opts.CollectorEndpoints...); err != nil {
		return err
	}
	a.initTelemetry(a.opts.Telemetry)
	if a.mem == nil {
		// At least one collector link must be live before the aggregator
		// reports ready; collectors that bind later attach automatically (and
		// hold their Changelogs until then).
		if err := a.sub.WaitAnyReady(5 * time.Second); err != nil {
			return err
		}
	} else {
		// A founding member applies its initial self-only map immediately; a
		// joiner waits for the first view that includes its seeds — opening
		// every partition only to release most of them a heartbeat later
		// would overlap ownership with the current owners.
		if len(a.opts.Join) == 0 {
			a.applyAssignment(a.mem.Assignment())
		}
		a.mem.Start()
	}
	a.pipe = pipeline.New(a.opts.Context)
	intake := pipeline.Source(a.pipe, "subscribe", intakeDepth, a.intakeLoop)
	stamped := pipeline.ShardN(a.pipe, "store", pipeline.DefaultBatchDepth, a.parts, intake,
		func(pb partBatch) int { return pb.part }, a.storeLane)
	pipeline.Sink(a.pipe, "republish", stamped, a.republishBatch)
	a.pipe.RegisterTelemetry(a.opts.Telemetry, a.metrics+".aggregator.pipeline")
	a.slog.Debug("aggregator started", "endpoint", a.pub.Addr(), "partitions", a.parts)
	return nil
}

// ConnectCollectors attaches collector publishers. A clustered deployment
// starts its members first (collectors route on the cluster view, which
// needs running members), then the collectors, then this hookup.
func (a *Aggregator) ConnectCollectors(endpoints ...string) error {
	for _, ep := range endpoints {
		if err := a.sub.Connect(ep); err != nil {
			return err
		}
	}
	return nil
}

// initTelemetry mirrors the aggregator under its root (a.metrics), the same
// names for a classic aggregator and a member: the conservation audit, the
// engine under "<root>.store", and under "<root>.aggregator" the hot-path
// latency histograms (lane time, and time since the capture stamp), the
// counters and both sockets; a member adds its membership gauges under the
// root. It runs once, before the aggregator's goroutines start: they read
// these fields unsynchronized. No-op when reg is nil.
func (a *Aggregator) initTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	// An idempotent attach: in-process members share one auditor.
	a.aud = reg.EnableAudit(a.parts)
	a.engine.RegisterTelemetry(reg, a.metrics+".store", a.aud)
	prefix := a.metrics + ".aggregator"
	a.storeUS = reg.Histogram(prefix+".store_us", nil)
	a.captureToStoreUS = reg.Histogram(prefix+".capture_to_store_us", nil)
	a.republishUS = reg.Histogram(prefix+".capture_to_republish_us", nil)
	reg.GaugeFunc(prefix+".received", func() float64 { return float64(a.received.Load()) })
	reg.GaugeFunc(prefix+".stored", func() float64 { return float64(a.stored.Load()) })
	reg.GaugeFunc(prefix+".published", func() float64 { return float64(a.published.Load()) })
	reg.GaugeFunc(prefix+".utilization", func() float64 {
		var total float64
		for _, t := range a.throttles {
			total += t.Utilization()
		}
		return total
	})
	msgq.RegisterPubTelemetry(reg, prefix+".pub", a.pub)
	msgq.RegisterSubTelemetry(reg, prefix+".sub", a.sub)
	if a.mem == nil {
		return
	}
	reg.GaugeFunc(a.metrics+".members", func() float64 { return float64(a.mem.Members()) })
	reg.GaugeFunc(a.metrics+".epoch", func() float64 { return float64(a.mem.Epoch()) })
	reg.GaugeFunc(a.metrics+".partitions_owned", func() float64 { return float64(len(a.engine.OwnedPartitions())) })
	reg.GaugeFunc(a.metrics+".handoffs_total", func() float64 { return float64(a.handoffs.Load()) })
	reg.GaugeFunc(a.metrics+".heartbeat_age_ms", func() float64 {
		return float64(a.mem.HeartbeatAge()) / float64(time.Millisecond)
	})
	reg.GaugeFunc(a.metrics+".strays_forwarded", func() float64 { return float64(a.strays.Load()) })
	// The flight recorder's cluster hook: incidents this process declares
	// are broadcast through this member. In-process members share one
	// recorder and any member's pub reaches the mesh, so the last-started
	// member winning the hook is harmless.
	if fr := reg.Flight(); fr != nil {
		fr.SetBroadcast(a.mem.BroadcastIncident)
	}
}

// Endpoint returns the aggregator's publisher endpoint — for a cluster
// member the advertised one (the bound address unless
// AggregatorOptions.Advertise rewrote the host).
func (a *Aggregator) Endpoint() string {
	if a.mem != nil {
		return a.mem.Self().Endpoint
	}
	return a.pub.Addr()
}

// Partitions returns the store-lane / engine partition count.
func (a *Aggregator) Partitions() int { return a.parts }

// partBatch is a collector message and the partition its topic names: still
// encoded (m.Payload — the owning lane decodes it into a pooled block) or a
// borrowed frozen block (m.Block — the in-process pointer fast path; the
// lane clones it before assigning seqs). Stamp and trace ride inside the
// block or the payload's wire header. The lane's block aliases m's memory
// either way, so m travels with it and is Done only after the block has
// been Reset.
type partBatch struct {
	part int
	m    msgq.Message
}

// repBatch is a sequenced batch ready to republish: the block is always
// exclusively owned by the pipeline at this point (decoded or cloned), so
// the republish stage lends it out and takes it back when the last
// subscriber is done. up is the collector message it aliases. n
// and stamp are carried because nothing touches a block after an accepted
// publish — not even to count it.
type repBatch struct {
	part  int
	blk   *events.Block
	up    msgq.Message
	n     int
	stamp int64
}

// drop returns a block the pipeline will not publish to the pool and then
// lets go of the upstream message it aliased — in that order.
func (a *Aggregator) drop(blk *events.Block, up msgq.Message) {
	a.pool.Put(blk)
	up.Done()
}

// intakeLoop is the subscribe source stage ("When an event arrives to the
// aggregator it is placed in a processing queue"). It does not decode:
// decoding happens on the owning partition's lane so the work parallelizes
// — and when the collector shares its block pointer in process, decoding
// never happens at all.
func (a *Aggregator) intakeLoop(ctx context.Context, emit func(partBatch) bool) error {
	for {
		m, ok := a.sub.Recv(ctx)
		if !ok {
			return nil
		}
		if m.LinkLost() {
			continue // a collector or peer link ended; it re-links by itself
		}
		if !emit(partBatch{part: topicPartition(m.Topic, a.parts), m: m}) {
			return nil
		}
	}
}

// topicPartition is the aggregator's one partition rule: the topic a batch
// arrived on names its partition, and the batch stays whole. A
// per-partition topic names it outright — a cluster member's inbox
// "events.node.<id>.p<k>", or "<topic>.p<k>" of a collector that splits at
// the source (msgq.PartitionTopic) — and a per-MDT topic "events.mdt<N>" is
// partition N mod P, so one MDT's Changelog order holds in one lane. Any
// other topic, a named index of P or more included, is one source and goes
// whole to the partition its name hashes to. Every topic maps into [0, P).
func topicPartition(topic string, parts int) int {
	if mdt := mdtFromTopic(topic); mdt >= 0 {
		return mdt % parts
	}
	if _, p, ok := msgq.SplitPartition(topic); ok && p < parts {
		return p
	}
	return eventstore.PartitionForPath(topic, parts)
}

// mdtFromTopic parses the collector topic "events.mdt<N>" back to N,
// or -1 when the topic is not a per-MDT collector topic.
func mdtFromTopic(topic string) int {
	const p = TopicPrefix + "mdt"
	if !strings.HasPrefix(topic, p) {
		return -1
	}
	n, err := strconv.Atoi(topic[len(p):])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// storeLane is the per-partition store stage: take exclusive ownership of
// the batch's block (zero-copy decode of a wire payload, or a column clone
// of a shared frozen block) and persist the block into the partition's
// shard — sequence numbers are assigned directly into the seq column, so
// the republish image is a clone+patch of the received bytes, never a
// re-marshal. ShardN guarantees one lane owns each partition, so
// within-partition order is preserved through the store. Spans carry the
// member ID (empty for a classic aggregator), so a traced event that crossed
// a handoff or a stray-forward renders as one chain with each hop attributed
// to its node.
func (a *Aggregator) storeLane(ctx context.Context, pb partBatch) (repBatch, bool) {
	var start time.Time
	if a.storeUS != nil {
		start = time.Now()
	}
	blk := a.pool.Get()
	if pb.m.Block != nil {
		// In-process pointer fast path: the received block is frozen,
		// so sequence assignment works on a clone — seqs copied, every
		// other column, the arena and the wire image shared.
		blk.CloneFrom(pb.m.Block)
	} else if err := events.DecodeBlockInto(blk, pb.m.Payload); err != nil {
		a.slog.Warn("dropping undecodable batch", "partition", pb.part, "bytes", len(pb.m.Payload), "err", err)
		a.drop(blk, pb.m)
		return repBatch{}, false
	}
	// The intake forwards batches undecoded, so the partition hop is only
	// observable here, at lane entry.
	a.span(blk, events.TierPartition)
	n := blk.Len()
	if n == 0 {
		a.drop(blk, pb.m)
		return repBatch{}, false
	}
	a.received.Add(uint64(n))
	switch fwd, ok := a.persist(ctx, pb.part, blk, pb.m, n); {
	case !ok:
		return repBatch{}, false
	case fwd:
		// A forwarded batch leaves the lane as an empty item that
		// republish skips, so a member that only forwards reads as
		// flowing to the watchdog's stall rule; a dropped batch does not.
		return repBatch{}, true
	}
	a.stored.Add(uint64(n))
	if a.storeUS != nil {
		a.storeUS.ObserveSince(start)
		if us := telemetry.SinceStampUS(blk.Stamp()); us >= 0 {
			a.captureToStoreUS.Observe(us)
		}
	}
	a.span(blk, events.TierStore)
	return repBatch{part: pb.part, blk: blk, up: pb.m, n: n, stamp: blk.Stamp()}, true
}

// span appends a tier span under this aggregator's identity to a traced
// block; untraced blocks are untouched.
func (a *Aggregator) span(blk *events.Block, tier uint8) {
	if tr := blk.Trace(); tr != nil {
		tr.AppendNode(tier, time.Now().UnixNano(), a.opts.ID)
		blk.MarkTraceDirty()
	}
}

// persist appends the block to the partition's store, spending the
// aggregation overhead on the lane's throttle, or — a cluster member that
// does not (or no longer does) hold the partition — forwards it to the
// current owner. ok reports whether the block was stored here (fwd false)
// or handed on to the owner (fwd true); when ok is false the block (and up,
// the message it aliases) has been dropped.
func (a *Aggregator) persist(ctx context.Context, part int, blk *events.Block, up msgq.Message, n int) (fwd, ok bool) {
	for {
		if st := a.store(part); st != nil {
			a.throttles[part].Spend(time.Duration(n) * a.opts.EventOverhead)
			_, err := st.AppendBlock(blk)
			if err == nil {
				return false, true
			}
			if a.store(part) == st {
				// Still the holder: a real store failure (e.g. capacity), not
				// a handoff race. Drop the batch but keep the service alive
				// for subsequent ones.
				a.slog.Error("store append failed, dropping batch", "partition", part, "events", n, "err", err)
				a.drop(blk, up)
				return false, false
			}
			continue // lost the partition mid-append: re-route
		}
		if a.mem == nil {
			a.slog.Error("engine does not hold partition, dropping batch", "partition", part, "events", n)
			a.drop(blk, up)
			return false, false
		}
		// Not the owner: forward to whoever is. The routed topic goes out
		// on our own pub — every member's intake is subscribed to its
		// inbox on every peer pub, so the forward is one hop (the lane-entry
		// partition span already records it under this member's identity).
		if topic, known := a.mem.OwnerTopic(part); known && topic != msgq.NodeTopic(a.opts.ID, part) {
			if a.pub.PublishLeasedCtx(ctx, topic, blk, a.recycle, up) > 0 {
				a.strays.Add(uint64(n))
				return true, true
			}
		}
		// Owner unknown, not yet subscribed, or it is us but the store
		// has not opened yet (assignment in flight): wait and re-check.
		select {
		case <-ctx.Done():
			a.drop(blk, up)
			return false, false
		case <-time.After(time.Millisecond):
		}
	}
}

// republishBatch is the republish sink stage. Consumers may legitimately
// be absent (they recover from the store), so no delivery is awaited.
// With one partition the batch goes out on the classic AggTopic — byte
// identical to the unpartitioned aggregator — otherwise on the
// partition's own topic (a prefix of which is still AggTopic, so plain
// subscribers see everything). The block goes out on lease: it returns to
// the pool, and the collector message it aliases is Done, when the last
// subscriber has finished with it — at once when there is none.
func (a *Aggregator) republishBatch(ctx context.Context, rb repBatch) {
	if rb.blk == nil {
		return // forwarded to the partition's owner (storeLane)
	}
	topic := a.topics[rb.part]
	// The republish span is stamped before encoding so it rides inside
	// the payload (traced batches re-encode; untraced ones go out as a
	// clone+patch of the received bytes).
	a.span(rb.blk, events.TierRepublish)
	if a.pub.PublishLeasedCtx(ctx, topic, rb.blk, a.recycle, rb.up) == 0 {
		a.drop(rb.blk, rb.up)
	}
	a.published.Add(uint64(rb.n))
	a.aud.Republished(rb.part, rb.n)
	if a.republishUS != nil {
		if us := telemetry.SinceStampUS(rb.stamp); us >= 0 {
			a.republishUS.Observe(us)
		}
	}
}

// RecoverPages implements RecoverySource in process: the held partitions'
// rows the cursors do not cover, paged through an eventstore.Pager as the
// recovery server pages them. A single cursor is a uniform cutoff.
func (a *Aggregator) RecoverPages(cursors []uint64, page func(*events.Block) error) error {
	if len(cursors) == 1 {
		cursors = uniform(cursors[0], a.parts)
	}
	if len(cursors) != a.parts {
		return fmt.Errorf("scalable: cursor vector has %d entries, aggregator has %d partitions", len(cursors), a.parts)
	}
	pg := eventstore.NewPager()
	pg.Start(cursors)
	blk := events.NewBlock(0, 0)
	for {
		wire, err := a.NextPage(pg, recoveryBatchMax)
		if err != nil || wire == nil {
			return err
		}
		if err = events.DecodeBlockInto(blk, wire); err == nil {
			err = page(blk)
		}
		if err != nil {
			return err
		}
	}
}

// NextPage serves the recovery server: the next wire page of p's request
// out of the held partitions (eventstore.Pager).
func (a *Aggregator) NextPage(p *eventstore.Pager, max int) ([]byte, error) {
	return a.engine.NextPage(p, max)
}

// Ack flags events up to seq as reported; Purge removes flagged events.
func (a *Aggregator) Ack(seq uint64) error { return a.engine.MarkReported(seq) }

// AckVector flags, per partition i, events up to cursors[i] as reported —
// the partition-aware Ack, safe when partitions drain at different rates.
func (a *Aggregator) AckVector(cursors []uint64) error {
	return a.engine.MarkReportedVector(cursors)
}

// LastSeqVector returns the highest stored seq per partition.
func (a *Aggregator) LastSeqVector() []uint64 { return a.engine.LastSeqVector() }

// Purge removes reported events from the store ("they are flagged as
// having been reported and can be removed from the data store when next
// data purge cycle is initiated").
func (a *Aggregator) Purge() (int, error) { return a.engine.Purge() }

// Stats returns a snapshot of the aggregator's counters.
func (a *Aggregator) Stats() AggregatorStats {
	st := AggregatorStats{
		Received:        a.received.Load(),
		Published:       a.published.Load(),
		Stored:          a.stored.Load(),
		Partitions:      a.parts,
		StraysForwarded: a.strays.Load(),
		Handoffs:        a.handoffs.Load(),
	}
	if a.pipe != nil {
		st.Pipeline = a.pipe.Stats()
	}
	for _, t := range a.throttles {
		st.BusyTime += t.Busy()
		st.Utilization += t.Utilization()
	}
	st.Store = a.engine.Stats()
	st.PartitionsOwned = len(a.engine.OwnedPartitions())
	if a.mem != nil {
		st.Members = a.mem.Members()
		st.Epoch = a.mem.Epoch()
	}
	return st
}

// ResetAccounting restarts the utilization window on every lane.
func (a *Aggregator) ResetAccounting() {
	for _, t := range a.throttles {
		t.Reset()
	}
}

// shutdown is the shared teardown: the subscription closes (ending the
// intake source after its buffer drains), the stages drain in order, a
// cluster member flushes and releases its partitions and leaves (graceful)
// or just stops (not), then the publisher and any owned store shut down.
func (a *Aggregator) shutdown(graceful bool) {
	a.closeOnce.Do(func() {
		a.sub.Close()
		if a.pipe != nil {
			a.pipe.Drain(pipeline.DefaultDrainGrace)
		}
		if a.mem != nil {
			a.releaseAll()
			if graceful {
				a.mem.Close()
			} else {
				a.mem.Kill()
			}
		}
		a.pub.Close()
		if a.ownStore {
			a.engine.Close()
		}
	})
}

// Close stops the aggregator gracefully. A cluster member's leave
// broadcast lets peers take its partitions over immediately.
func (a *Aggregator) Close() { a.shutdown(true) }

// Kill stops a cluster member abruptly — no leave broadcast, peers must
// detect the silence. Tests use it to exercise failure-driven handoff; the
// partitions' durability is whatever the journal Sync policy guaranteed
// at the moment of death.
func (a *Aggregator) Kill() { a.shutdown(false) }

// uniform is the cursor vector of a scalar cutoff over parts partitions.
func uniform(seq uint64, parts int) []uint64 {
	cursors := make([]uint64, parts)
	for i := range cursors {
		cursors[i] = seq
	}
	return cursors
}

// encodeSeq/decodeSeq frame a sequence number for the recovery protocol.
func encodeSeq(seq uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return b[:]
}

func decodeSeq(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// encodeSeqVector/decodeSeqVector frame a per-partition cursor vector for
// the recovery protocol: u32 little-endian count, then count u64 cursors.
func encodeSeqVector(cursors []uint64) []byte {
	b := make([]byte, 4+8*len(cursors))
	binary.LittleEndian.PutUint32(b, uint32(len(cursors)))
	for i, c := range cursors {
		binary.LittleEndian.PutUint64(b[4+8*i:], c)
	}
	return b
}

func decodeSeqVector(b []byte) []uint64 {
	if len(b) < 4 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || len(b) < 4+8*n {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[4+8*i:])
	}
	return out
}
