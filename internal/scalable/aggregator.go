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

// newTargetBlock is what the aggregator and consumer pools hand out: decode,
// clone and view targets. They start bare because everything they hold
// arrives with the batch — a decode aliases the payload as its arena and
// sizes its columns from the header, a clone shares its source's columns
// and copies only seqs, a view adopts its source's arena. What they grow of
// their own (a decode's columns, a clone's seq column, a re-encoded wire
// image) is kept across the lease that brings them back.
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
	// Telemetry, when non-nil, mirrors a classic aggregator into the
	// unified registry under "fsmon.aggregator" (and the engine under
	// "fsmon.store.p<i>"), a cluster member under "fsmon.cluster.<ID>".
	// Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger

	// ID names this aggregator as a cluster member (cluster.ValidID) and
	// switches it to clustered operation: it ingests the routed
	// "events.node.<ID>.p<part>" topics instead of the per-MDT ones, stores
	// only the partitions the assignment map gives it, and forwards batches
	// for any other partition to that partition's owner.
	ID string
	// Ctl is the member's join inbox bind (default "<Endpoint>.ctl" for
	// inproc, "tcp://127.0.0.1:0" when Endpoint is tcp).
	Ctl string
	// Advertise, when non-empty, is the externally reachable host
	// substituted into the advertised publisher and ctl addresses —
	// required when Endpoint/Ctl bind wildcard addresses (0.0.0.0) that
	// peers on other machines cannot dial.
	Advertise string
	// Join lists ctl inboxes of existing members; empty founds a cluster.
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
	if o.ID != "" && o.Ctl == "" {
		if strings.HasPrefix(o.Endpoint, "tcp://") {
			o.Ctl = "tcp://127.0.0.1:0"
		} else {
			o.Ctl = o.Endpoint + ".ctl"
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
	// Pipeline is the per-stage view (subscribe → partition → store →
	// republish).
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
// it to consumers. Per §IV-2 it is multi-threaded, as a subscribe →
// partition → store → republish pipeline: batches are routed to a
// partition by their collector's MDT index (falling back to a path hash),
// each partition's store lane persists into its shard of the reliable
// engine (assigning the shard-tagged sequence numbers consumers use for
// recovery), and the republish stage publishes stamped batches on the
// partition's topic. Order is preserved within a partition — one lane owns
// each partition — while partitions proceed in parallel.
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
	ownStore  bool
	throttles []*pace.Throttle // one per store lane

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
	// Like the collector's: blocking, and a TCP subscriber's send queue no
	// deeper than the subscription queues.
	pub := msgq.NewPub(msgq.WithBlockOnFull(), msgq.WithHWM(pipeline.DefaultAggregatorQueue))
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
		ownStore:  ownStore,
		throttles: make([]*pace.Throttle, parts),
		pool:      pipeline.NewPool(0, newTargetBlock, resetBlock),
	}
	a.recycle = a.pool.Put
	for i := range a.throttles {
		a.throttles[i] = pace.NewThrottle()
	}
	var err error
	if clustered {
		a.slog = telemetry.ComponentLogger(opts.Logger, "node."+opts.ID)
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
	intake := pipeline.Source(a.pipe, "subscribe", pipeline.DefaultBatchDepth, a.intakeLoop)
	parted := pipeline.Expand(a.pipe, "partition", pipeline.DefaultBatchDepth, intake, a.partitionBatch)
	stamped := pipeline.ShardN(a.pipe, "store", pipeline.DefaultBatchDepth, a.parts, parted,
		func(pb partBatch) int { return pb.part }, a.storeLane)
	pipeline.Sink(a.pipe, "republish", stamped, a.republishBatch)
	a.registerTelemetry(a.opts.Telemetry)
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

// initTelemetry attaches the conservation audit and, for a classic
// aggregator, creates the latency histograms on the store/republish hot
// path (both local lane time and cumulative time since the collector's
// capture stamp). It must run before the pipeline is built: lane goroutines
// read these fields without synchronization. No-op when reg is nil.
func (a *Aggregator) initTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	// The aggregator knows the partition count, so it attaches the auditor
	// and hands it to the engine's append path (an idempotent attach —
	// in-process members share one).
	a.aud = reg.EnableAudit(a.parts)
	a.engine.SetAudit(a.aud)
	if a.mem != nil {
		return
	}
	const prefix = "fsmon.aggregator"
	a.storeUS = reg.Histogram(prefix+".store_us", nil)
	a.captureToStoreUS = reg.Histogram(prefix+".capture_to_store_us", nil)
	a.republishUS = reg.Histogram(prefix+".capture_to_republish_us", nil)
}

// registerTelemetry mirrors the aggregator into reg. A classic aggregator
// registers "fsmon.aggregator.*" — counters, pipeline stages, both sockets
// — and the engine's per-partition surface under "fsmon.store". A cluster
// member registers "fsmon.cluster.<id>.*" instead: several members can
// share one process and one registry, so their names carry the member ID,
// and that prefix is the slice of the registry the member publishes to the
// federation and the watchdog's cluster rules read. Runs after the pipeline
// is built so the mirrors can close over live stages. No-op when reg is nil.
func (a *Aggregator) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	prefix := "fsmon.aggregator"
	if a.mem != nil {
		prefix = "fsmon.cluster." + a.opts.ID
	}
	reg.GaugeFunc(prefix+".received", func() float64 { return float64(a.received.Load()) })
	reg.GaugeFunc(prefix+".stored", func() float64 { return float64(a.stored.Load()) })
	if a.mem != nil {
		reg.GaugeFunc(prefix+".members", func() float64 { return float64(a.mem.Members()) })
		reg.GaugeFunc(prefix+".epoch", func() float64 { return float64(a.mem.Epoch()) })
		reg.GaugeFunc(prefix+".partitions_owned", func() float64 { return float64(len(a.engine.OwnedPartitions())) })
		reg.GaugeFunc(prefix+".handoffs_total", func() float64 { return float64(a.handoffs.Load()) })
		reg.GaugeFunc(prefix+".heartbeat_age_ms", func() float64 {
			return float64(a.mem.HeartbeatAge()) / float64(time.Millisecond)
		})
		reg.GaugeFunc(prefix+".strays_forwarded", func() float64 { return float64(a.strays.Load()) })
		// The flight recorder's cluster hook: incidents this process declares
		// are broadcast through this member. In-process members share one
		// recorder and any member's pub reaches the mesh, so the last-started
		// member winning the hook is harmless.
		if fr := reg.Flight(); fr != nil {
			fr.SetBroadcast(a.mem.BroadcastIncident)
		}
		return
	}
	reg.GaugeFunc(prefix+".published", func() float64 { return float64(a.published.Load()) })
	reg.GaugeFunc(prefix+".partitions", func() float64 { return float64(a.parts) })
	reg.GaugeFunc(prefix+".utilization", func() float64 {
		var total float64
		for _, t := range a.throttles {
			total += t.Utilization()
		}
		return total
	})
	a.pipe.RegisterTelemetry(reg, prefix+".pipeline")
	msgq.RegisterPubTelemetry(reg, prefix+".pub", a.pub)
	msgq.RegisterSubTelemetry(reg, prefix+".sub", a.sub)
	a.engine.RegisterTelemetry(reg, "fsmon.store")
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

// rawBatch is an unrouted collector message — the wire payload over TCP, the
// block on loan over the in-process fast path — and the partition its topic
// names (-1 when the topic names none).
type rawBatch struct {
	m    msgq.Message
	part int
}

// partBatch is a batch routed to one partition. Three shapes flow through:
// still encoded (m.Payload — the owning lane decodes it into a pooled
// block), a borrowed frozen block (m.Block — the in-process pointer fast
// path; the lane clones it before assigning seqs), or an owned view block
// (view, the path-hash split; m is then zero). Stamp and trace ride inside
// the block or the payload's wire header. The lane's block aliases m's
// memory either way, so m travels with it and is Done only after the block
// has been Reset.
type partBatch struct {
	part int
	m    msgq.Message
	view *events.Block
}

// repBatch is a sequenced batch ready to republish: the block is always
// exclusively owned by the pipeline at this point (decoded, cloned, or a
// split view), so the republish stage lends it out and takes it back when
// the last subscriber is done. up is the collector message it aliases. n
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
// never happens at all. The partition comes from the topic: a collector's
// MDT index for "events.mdt<N>", the routed partition itself for a cluster
// member's "events.node.<id>.p<part>" inbox.
func (a *Aggregator) intakeLoop(ctx context.Context, emit func(rawBatch) bool) error {
	for {
		m, ok := a.sub.Recv(ctx)
		if !ok {
			return nil
		}
		part := -1
		if a.mem != nil {
			id, p, ok := msgq.ParseNodeTopic(m.Topic)
			if !ok || id != a.opts.ID || p >= a.parts {
				a.slog.Warn("dropping misaddressed batch", "topic", m.Topic)
				continue
			}
			part = p
		} else if mdt := mdtFromTopic(m.Topic); mdt >= 0 {
			part = mdt % a.parts
		}
		if !emit(rawBatch{m: m, part: part}) {
			return nil
		}
	}
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

// partitionBatch is the partition router stage: the stable partition
// function is the one the batch's topic named (all of one MDT's events
// share a partition, keeping their Changelog order), falling back to a
// per-path hash split for batches whose origin is unknown. The fast path
// forwards the payload undecoded.
func (a *Aggregator) partitionBatch(_ context.Context, rb rawBatch, emit func(partBatch) bool) {
	if rb.part >= 0 || a.parts == 1 {
		emit(partBatch{part: max(rb.part, 0), m: rb.m})
		return
	}
	// Path-hash split: decode the payload as a zero-copy block (or adopt
	// the borrowed block as-is) and build one pooled view block per non-empty
	// partition over the same arena — no event structs, no string copies.
	// Several views over one arena are more than a lease's single parent
	// link expresses, so a borrowed block split here is never Done: it falls
	// to the GC once its views have, which is always safe.
	src, scratch := rb.m.Block, false
	if src == nil {
		src = a.pool.Get()
		scratch = true
		if err := events.DecodeBlockInto(src, rb.m.Payload); err != nil {
			a.pool.Put(src)
			a.slog.Warn("dropping undecodable batch", "bytes", len(rb.m.Payload), "err", err)
			return
		}
	}
	views, traced := splitByPath(a.pool, src, a.parts)
	traced.AppendNode(events.TierPartition, time.Now().UnixNano(), a.opts.ID)
	for p, v := range views {
		if v == nil {
			continue
		}
		if !emit(partBatch{part: p, view: v}) {
			return
		}
	}
	if scratch {
		// The views reference the payload arena directly, not src's
		// columns, so the scratch block recycles immediately.
		a.pool.Put(src)
	}
}

// splitByPath is the path-hash partitioner, shared by the aggregator's
// router stage and a routing collector: one pooled view block per non-empty
// partition (nil elsewhere) over src's arena — no event structs, no string
// copies. The views alias src's bytes, which must outlive them. The trace
// follows its sampled event, not the batch: only the view that carries the
// event whose key is the trace ID keeps the span chain, as a copy (src may
// be a shared frozen block), returned so the caller can append its own hop.
func splitByPath(pool *pipeline.Pool[events.Block], src *events.Block, parts int) (views []*events.Block, traced *events.BatchTrace) {
	views = make([]*events.Block, parts)
	trace := src.Trace()
	for i, n := 0, src.Len(); i < n; i++ {
		p := eventstore.PartitionForPathBytes(src.PathBytes(i), parts)
		v := views[p]
		if v == nil {
			v = pool.Get()
			v.SetStamp(src.Stamp())
			views[p] = v
		}
		v.AppendFrom(src, i)
		if trace != nil && traced == nil && src.EventKey(i) == trace.ID {
			traced = &events.BatchTrace{ID: trace.ID, Spans: append([]events.Span(nil), trace.Spans...)}
			v.SetTrace(traced)
		}
	}
	return views, traced
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
	blk := pb.view
	switch {
	case blk != nil:
	case pb.m.Block != nil:
		// In-process pointer fast path: the received block is frozen,
		// so sequence assignment works on a clone — seqs copied, every
		// other column, the arena and the wire image shared.
		blk = a.pool.Get()
		blk.CloneFrom(pb.m.Block)
		a.span(blk, events.TierPartition)
	default:
		blk = a.pool.Get()
		if err := events.DecodeBlockInto(blk, pb.m.Payload); err != nil {
			a.slog.Warn("dropping undecodable batch", "partition", pb.part, "bytes", len(pb.m.Payload), "err", err)
			a.drop(blk, pb.m)
			return repBatch{}, false
		}
		// The wire fast path forwards payloads undecoded, so the
		// partition hop is only observable here, at lane entry.
		a.span(blk, events.TierPartition)
	}
	n := blk.Len()
	if n == 0 {
		a.drop(blk, pb.m)
		return repBatch{}, false
	}
	a.received.Add(uint64(n))
	if !a.persist(ctx, pb.part, blk, pb.m, n) {
		return repBatch{}, false
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
// current owner. It reports whether the block was stored here; when it was
// not, the block (and up, the message it aliases) has been dropped or
// handed on.
func (a *Aggregator) persist(ctx context.Context, part int, blk *events.Block, up msgq.Message, n int) bool {
	for {
		if st := a.store(part); st != nil {
			a.throttles[part].Spend(time.Duration(n) * a.opts.EventOverhead)
			_, err := st.AppendBlock(blk)
			if err == nil {
				return true
			}
			if a.store(part) == st {
				// Still the holder: a real store failure (e.g. capacity), not
				// a handoff race. Drop the batch but keep the service alive
				// for subsequent ones.
				a.slog.Error("store append failed, dropping batch", "partition", part, "events", n, "err", err)
				a.drop(blk, up)
				return false
			}
			continue // lost the partition mid-append: re-route
		}
		if a.mem == nil {
			a.slog.Error("engine does not hold partition, dropping batch", "partition", part, "events", n)
			a.drop(blk, up)
			return false
		}
		// Not the owner: forward to whoever is. The routed topic goes out
		// on our own pub — every member's intake is subscribed to its
		// inbox on every peer pub, so the forward is one hop (the lane-entry
		// partition span already records it under this member's identity).
		if topic, ok := a.mem.OwnerTopic(part); ok && topic != msgq.NodeTopic(a.opts.ID, part) {
			if a.pub.PublishLeasedCtx(ctx, topic, blk, a.recycle, up) > 0 {
				a.strays.Add(uint64(n))
				return false
			}
		}
		// Owner unknown, not yet subscribed, or it is us but the store
		// has not opened yet (assignment in flight): wait and re-check.
		select {
		case <-ctx.Done():
			a.drop(blk, up)
			return false
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
	topic := AggTopic
	if a.parts > 1 {
		topic = msgq.PartitionTopic(AggTopic, rb.part)
	}
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

// Since serves the consumer fault-recovery API: events with sequence
// numbers greater than seq, from the reliable store (the partitions held
// here, for a cluster member), in global order.
func (a *Aggregator) Since(seq uint64, max int) ([]events.Event, error) {
	return a.engine.Since(seq, max)
}

// SinceVector serves partition-aware fault recovery: events not covered by
// the per-partition cursor vector (len must equal Partitions()).
func (a *Aggregator) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	return a.engine.SinceVector(cursors, max)
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
