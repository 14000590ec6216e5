// Package scalable implements the paper's scalable monitor for distributed
// file systems (§IV, Fig. 4): one Collector per MDS extracts events from
// that MDS's Changelog, processes them with Algorithm 1 (fid2path
// resolution through an LRU cache), and publishes them over the message
// queue; an Aggregator on the MGS subscribes to every collector, stores
// events for fault tolerance, and publishes the merged stream; Consumers
// subscribe to the aggregator, filter client-side, and recover missed
// events from the reliable store.
//
// Every service runs on internal/pipeline stages: the collector is
// changelog-read → resolve → publish, the aggregator subscribe → store →
// republish, the consumer subscribe → filter-deliver. The resolve stage is
// a pipeline.MapN over a shared resolve.Resolver — ResolveWorkers
// invocations of Algorithm 1 run concurrently against the sharded,
// singleflight-coalescing fid2path cache, while MapN's order-preserving
// resequencing keeps per-FID event order and Changelog purge cursors
// strictly in Changelog order. Lifecycle is context-driven — Close drains
// the stages in order, and an optional parent context aborts them.
package scalable

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/cache"
	"fsmonitor/internal/dsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/resolve"
	"fsmonitor/internal/telemetry"
)

// TopicPrefix is the message-queue topic prefix for collector event
// batches; the per-MDT topic is TopicPrefix + "mdt<N>", a mounted
// backend's TopicPrefix + "mount.<name>". Sharing the prefix is what lets
// both kinds of collector feed one aggregation tier through one
// subscription.
const TopicPrefix = "events."

// ParentDirectoryRemoved is the path reported when both the target and its
// parent FID fail to resolve (Algorithm 1 line 41). It is re-exported from
// the shared resolver layer.
const ParentDirectoryRemoved = resolve.ParentDirectoryRemoved

// Router maps store partitions to their owning aggregator node. A routed
// collector publishes each batch slice to the owning node's inbox topic
// instead of its own topic, and re-resolves the owner between delivery
// retries, so an in-flight batch follows a partition handoff to the new
// owner. cluster.Membership (observer mode) implements it.
type Router interface {
	// Parts is the partition count batches are split by.
	Parts() int
	// OwnerTopic returns the owning node's inbox topic for part; false
	// while the partition is unassigned (a handoff in flight).
	OwnerTopic(part int) (string, bool)
}

// fixedRoute is the Router of a collector that was given none: a single
// partition whose owner is always the collector's own topic, so the whole
// batch goes out unsplit on "events.mdt<N>" / "events.mount.<name>".
type fixedRoute string

func (r fixedRoute) Parts() int                    { return 1 }
func (r fixedRoute) OwnerTopic(int) (string, bool) { return string(r), true }

// MountSource names one mounted backend: the capture side of a collector
// that drains an arbitrary DSI instead of a Changelog. The DSI is typically
// opened through the dsi registry.
type MountSource struct {
	// Prefix is the unified-namespace mount point (e.g. "/lustre").
	Prefix string
	// Name overrides the telemetry-safe mount name
	// (default mount.PointName(Prefix)).
	Name string
	// DSI is the opened backend to mount. A started collector owns it
	// (Close closes it).
	DSI dsi.DSI
}

// CollectorOptions configures one collector service. What it captures is
// whichever of Cluster and Mount.DSI is set — exactly one must be.
type CollectorOptions struct {
	// Cluster is the file system whose Changelog is read.
	Cluster *lustre.Cluster
	// MDT is the index of the MDS/MDT this collector serves.
	MDT int
	// MountPoint is the client mount path used as the event root
	// (e.g. "/mnt/lustre").
	MountPoint string
	// Mount is the mounted backend drained instead of a Changelog: an
	// already-standardized DSI stream, rewritten under Mount.Prefix into
	// the unified namespace (root "/") and batched by size or age
	// (pipeline.DefaultBatchInterval). The fields from MDT to
	// ResolveWorkers, and the two modeled costs, do not apply to it.
	Mount MountSource
	// CacheSize is the fid2path LRU capacity; 0 disables caching
	// (the paper's "without cache" configuration).
	CacheSize int
	// CacheShards is the fid2path cache shard count (default
	// pipeline.DefaultCacheShards).
	CacheShards int
	// NegativeTTL is how long stale-FID resolution failures are
	// negative-cached; <= 0 disables (the default — the paper's
	// collector pays fid2path on every dead-FID miss). Use
	// pipeline.DefaultNegativeTTL when enabling.
	NegativeTTL time.Duration
	// ResolveWorkers is the resolve stage's parallelism: how many
	// Algorithm-1 translations run concurrently (default
	// pipeline.DefaultResolveWorkers = 1, the paper's serial collector).
	// Event order is preserved at any worker count (the stage resequences
	// outputs to input order), but parallel translation races the
	// cache-priming side effects that dead-FID path reconstruction relies
	// on across batches: a record whose FID died before an earlier
	// batch's records were translated may fall back to the
	// ParentDirectoryRemoved marker more often than under the serial
	// collector.
	ResolveWorkers int
	// BatchSize bounds records per Changelog read (default
	// pipeline.DefaultChangelogBatch), or events per published batch of a
	// mounted backend (default pipeline.DefaultLocalBatch).
	BatchSize int
	// PollInterval is the idle wait between empty Changelog reads and
	// between delivery retries (default pipeline.DefaultPollInterval).
	PollInterval time.Duration
	// Endpoint is the msgq endpoint the collector's publisher binds
	// (default "inproc://collector-mdt<N>" / "inproc://collector-mount-<name>").
	Endpoint string
	// Router, when non-nil, switches the collector to clustered routing:
	// each sealed batch is split by the store partition function and
	// every slice is published to the partition owner's inbox topic. Nil
	// (the default) publishes whole batches on the collector's own topic.
	// With Parts() == 1 the whole batch routes to the single owner
	// unsplit, so a one-node cluster receives the exact bytes a classic
	// aggregator would.
	Router Router
	// EventOverhead is the accounted processing cost per event beyond
	// resolution (parsing, queueing; default 3µs).
	EventOverhead time.Duration
	// CacheLookupCost models one cache access including the maintenance
	// pressure of larger tables; 0 derives it from CacheSize (see
	// resolve.LookupCost).
	CacheLookupCost time.Duration
	// Context aborts the collector when canceled (Close remains the
	// graceful path). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors the collector into the unified
	// registry under "fsmon.collector.mdt<N>" (a mounted backend:
	// "fsmon.mount.<name>"), records per-stage latency histograms, and
	// stamps batches at capture for tracing and the conservation audit.
	// Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

// CollectorStats is a snapshot of one collector's counters.
type CollectorStats struct {
	// Mount is the mount name of a collector draining a mounted backend;
	// "" for a Changelog collector, which MDT identifies.
	Mount string
	MDT   int
	// RecordsRead counts what the source handed over: Changelog records,
	// or events drained from the mounted DSI.
	RecordsRead     uint64
	EventsPublished uint64
	// Fid2PathCalls counts fid2path tool invocations.
	Fid2PathCalls uint64
	// Fid2PathStale counts invocations that failed with ErrStaleFID —
	// the expected deleted-FID outcome on UNLNK/RENME paths that
	// Algorithm 1 handles, not failures.
	Fid2PathStale uint64
	// Fid2PathErrors counts invocations that failed for any other
	// reason — real errors.
	Fid2PathErrors uint64
	Cache          cache.Stats
	BusyTime       time.Duration
	Utilization    float64
	ChangelogLag   int // records retained behind the collector
	// Pipeline is the per-stage view (changelog-read → resolve → publish,
	// or collect → publish).
	Pipeline []pipeline.Stats
}

// pubBatch is a sealed batch awaiting publication, with the source cursor
// that may be acknowledged once it is delivered; blk may be nil (e.g. a
// read of only MARK records) in which case only the cursor advances. The
// capture stamp and any sampled span chain ride inside the block.
type pubBatch struct {
	blk   *events.Block
	since uint64
}

// Collector extracts, processes, and publishes one source's events: the
// source's capture stages (source.go) feeding the one publish tail below.
type Collector struct {
	opts  CollectorOptions
	src   source
	pub   *msgq.Pub
	route Router
	// topic is the collector's own topic, metrics its telemetry prefix;
	// the source names both.
	topic   string
	metrics string

	pipe *pipeline.Pipeline
	pool *pipeline.Pool[events.Block]
	// recycle is pool.Put as the release hook of a leased publish, bound
	// once: a method value built per batch would allocate.
	recycle func(*events.Block)

	read      atomic.Uint64
	published atomic.Uint64

	slog      *slog.Logger
	publishUS *telemetry.Histogram // per-batch publish stage wall time

	closeOnce sync.Once
}

// NewCollector creates and starts a collector.
func NewCollector(opts CollectorOptions) (*Collector, error) {
	if opts.PollInterval <= 0 {
		opts.PollInterval = pipeline.DefaultPollInterval
	}
	c := &Collector{opts: opts, pool: pipeline.NewPool(0, newPoolBlock, resetBlock)}
	c.recycle = c.pool.Put
	var err error
	switch hasLog, hasDSI := opts.Cluster != nil, opts.Mount.DSI != nil; {
	case hasLog == hasDSI:
		err = errors.New("scalable: CollectorOptions needs exactly one of Cluster and Mount.DSI to capture from")
	case hasLog:
		err = c.openChangelog()
	default:
		err = c.openDSI()
	}
	if err != nil {
		return nil, err
	}
	// §V-D2: no event loss — queue, don't drop. A TCP subscriber's send
	// queue is one more queue of blocks on loan, so it is as deep as the
	// subscription queues, not msgq's 10 000-frame default.
	c.pub = msgq.NewPub(msgq.WithBlockOnFull(), msgq.WithHWM(pipeline.DefaultAggregatorQueue))
	if err := c.pub.Bind(c.opts.Endpoint); err != nil {
		return nil, err
	}
	// Stored once: a per-batch conversion would allocate on the hot path.
	if c.route = opts.Router; c.route == nil {
		c.route = fixedRoute(c.topic)
	}
	// The hot-path instruments must exist before the pipeline is built:
	// stage goroutines read them without synchronization. Untraced
	// collectors have none, publish unstamped batches and pay no wire or
	// clock cost.
	if reg := opts.Telemetry; reg != nil {
		c.publishUS = reg.Histogram(c.metrics+".publish_us", nil)
	}
	c.pipe = pipeline.New(opts.Context)
	pipeline.Sink(c.pipe, "publish", c.src.capture(), c.publish)
	if reg := opts.Telemetry; reg != nil {
		// After the pipeline is built, so the mirrors close over live stages.
		c.pipe.RegisterTelemetry(reg, c.metrics+".pipeline")
		msgq.RegisterPubTelemetry(reg, c.metrics+".pub", c.pub)
	}
	c.slog.Debug("collector started", "topic", c.topic, "endpoint", c.pub.Addr())
	return c, nil
}

// audit resolves the delivery-conservation audit at use time rather than
// construction time: Deploy builds collectors before the aggregator enables
// the audit on the shared registry, so a cached handle would always be nil.
// The lookup is one atomic pointer load per batch.
func (c *Collector) audit() *telemetry.Audit {
	return c.opts.Telemetry.Audit()
}

// Endpoint returns the publisher endpoint consumers should connect to.
func (c *Collector) Endpoint() string { return c.pub.Addr() }

// stamp is the wall-clock capture mark a source takes when it starts a
// batch. With telemetry attached the published batch carries it, so
// downstream tiers (and other processes) can measure latency from this
// moment. Untraced collectors leave it at zero, which keeps the wire
// encoding byte-identical to an uninstrumented build.
func (c *Collector) stamp() int64 {
	if c.opts.Telemetry != nil {
		return telemetry.Stamp()
	}
	return 0
}

// seal is where a source's filled, non-empty block becomes a batch: the
// capture boundary of the conservation audit — every event is accounted
// here, before any publish can fail or split — and the point a sampled
// span chain opens.
func (c *Collector) seal(blk *events.Block, stamp int64) {
	c.audit().Captured(blk.Len())
	blk.SetStamp(stamp)
	// Deterministic 1-in-N trace sampling: the first sampled event in the
	// batch opens the span chain — collect at the capture stamp, resolve
	// now. Keying on the event's identity hash means the same event is
	// picked at any batch boundary, so a test (or a rerun) traces the
	// same chain. The rate is read per batch (two atomic loads), not at
	// construction: the flight recorder's adaptive boost densifies it on a
	// live deployment.
	if traceN := c.opts.Telemetry.TraceSampleN(); traceN > 0 && stamp != 0 {
		for i := 0; i < blk.Len(); i++ {
			if key := blk.EventKey(i); traceN == 1 || key%uint64(traceN) == 0 {
				tr := &events.BatchTrace{ID: key}
				tr.Append(events.TierCollect, stamp)
				tr.Append(events.TierResolve, time.Now().UnixNano())
				blk.SetTrace(tr)
				break
			}
		}
	}
}

// publish is the publish sink stage: marshal, publish to at least one
// subscriber, then acknowledge the batch's cursor to the source — "after
// processing a batch of file system events from the Changelog, a
// collector will purge the Changelogs." Acknowledging strictly after
// delivery preserves the no-loss guarantee: if the aggregator is gone (or,
// routed, any slice's owner is) the batch's records stay in the Changelog
// for the next collector.
func (c *Collector) publish(ctx context.Context, pb pubBatch) {
	delivered := true
	if blk := pb.blk; blk != nil && blk.Len() > 0 {
		var start time.Time
		if c.publishUS != nil {
			start = time.Now()
		}
		if tr := blk.Trace(); tr != nil {
			// The publish span marks the handoff onto the wire; it is
			// stamped before encoding so it rides inside the payload.
			tr.Append(events.TierPublish, time.Now().UnixNano())
			blk.MarkTraceDirty()
		}
		delivered = c.publishRouted(ctx, blk)
		if delivered && c.publishUS != nil {
			c.publishUS.ObserveSince(start)
		}
	}
	if delivered {
		c.src.ack(pb.since)
	}
}

// routeDeliver publishes blk to the current owner of part until at least
// one subscriber accepts it (the events then count as published) or ctx is
// canceled, re-resolving the owner between attempts: a batch in flight
// across a partition handoff retargets to the new owner instead of stalling
// on the dead one's topic. A zero count means no subscriber accepted the
// batch — all detached between the wait and the send, or a fresh TCP link
// has not registered its topics yet — so pause and re-wait rather than
// losing the batch; the block's wire image is encoded at most once across
// the retries. An accepted publish takes the block away — it comes back
// through release when the last receiver is done, or with a nil release (a
// split view) is shared for good — so the event count is read before the
// publish, never after. On failure the caller still owns blk.
func (c *Collector) routeDeliver(ctx context.Context, part int, blk *events.Block, release func(*events.Block)) bool {
	n := blk.Len()
	for {
		if topic, assigned := c.route.OwnerTopic(part); assigned {
			if err := c.pub.WaitSubscribed(ctx); err != nil {
				return false
			}
			if c.pub.PublishLeasedCtx(ctx, topic, blk, release, msgq.Message{}) > 0 {
				c.published.Add(uint64(n))
				c.audit().Published(n)
				return true
			}
		}
		select {
		case <-ctx.Done():
		case <-time.After(c.opts.PollInterval):
		}
		if ctx.Err() != nil {
			return false
		}
	}
}

// publishRouted splits blk by store partition and delivers each slice to
// its owning node's inbox topic, reporting whether every slice was
// delivered (the batch's cursor may be acknowledged only then). A single
// partition — every un-clustered collector — routes the whole block
// unsplit and on lease: the owner receives the identical batch a classic
// aggregator would, and the block returns to the pool once every receiver
// has called Done.
func (c *Collector) publishRouted(ctx context.Context, blk *events.Block) bool {
	parts := c.route.Parts()
	if parts <= 1 {
		ok := c.routeDeliver(ctx, 0, blk, c.recycle)
		if !ok {
			c.pool.Put(blk)
		}
		return ok
	}
	// The aggregator's own partitioner, run at the source. The views adopt
	// blk's arena by reference, so blk must outlive every view: several
	// views over one arena are more than a lease's single parent link
	// expresses, so they go out unleased — once any view is delivered, blk
	// and the delivered views are left to the GC.
	views, _ := splitByPath(c.pool, blk, parts)
	all, delivered := true, false
	for p, v := range views {
		if v == nil {
			continue
		}
		// Once a slice has failed (context canceled) the rest are released
		// undelivered.
		ok := all && c.routeDeliver(ctx, p, v, nil)
		all = all && ok
		delivered = delivered || ok
		if !ok {
			c.pool.Put(v) // Reset drops the view's arena alias safely
		}
	}
	if !delivered {
		c.pool.Put(blk)
	}
	return all
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() CollectorStats {
	st := CollectorStats{
		MDT:             c.opts.MDT,
		RecordsRead:     c.read.Load(),
		EventsPublished: c.published.Load(),
		Pipeline:        c.pipe.Stats(),
	}
	c.src.stats(&st)
	return st
}

// ResetAccounting restarts the utilization window (benchmarks call this at
// the start of a measurement interval).
func (c *Collector) ResetAccounting() { c.src.resetAccounting() }

// Close stops the source and drains the stages in the order the source
// needs (in-flight batches still publish), then closes the publisher.
func (c *Collector) Close() {
	c.closeOnce.Do(func() {
		c.src.close(func() { c.pipe.Drain(pipeline.DefaultDrainGrace) })
		c.pub.Close()
	})
}
