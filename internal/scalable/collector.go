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
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/cache"
	"fsmonitor/internal/events"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/resolve"
	"fsmonitor/internal/telemetry"
)

// TopicPrefix is the message-queue topic prefix for collector event
// batches; the per-MDT topic is TopicPrefix + "mdt<N>".
const TopicPrefix = "events."

// ParentDirectoryRemoved is the path reported when both the target and its
// parent FID fail to resolve (Algorithm 1 line 41). It is re-exported from
// the shared resolver layer.
const ParentDirectoryRemoved = resolve.ParentDirectoryRemoved

// Router maps store partitions to their owning aggregator node. A routed
// collector publishes each batch slice to the owning node's inbox topic
// instead of its own per-MDT topic, and re-resolves the owner between
// delivery retries, so an in-flight batch follows a partition handoff to
// the new owner. cluster.Membership (observer mode) implements it.
type Router interface {
	// Parts is the partition count batches are split by.
	Parts() int
	// OwnerTopic returns the owning node's inbox topic for part; false
	// while the partition is unassigned (a handoff in flight).
	OwnerTopic(part int) (string, bool)
}

// CollectorOptions configures one collector service.
type CollectorOptions struct {
	// Cluster is the file system whose Changelog is read.
	Cluster *lustre.Cluster
	// MDT is the index of the MDS/MDT this collector serves.
	MDT int
	// MountPoint is the client mount path used as the event root
	// (e.g. "/mnt/lustre").
	MountPoint string
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
	// pipeline.DefaultChangelogBatch).
	BatchSize int
	// PollInterval is the idle wait between empty Changelog reads
	// (default pipeline.DefaultPollInterval).
	PollInterval time.Duration
	// Endpoint is the msgq endpoint the collector's publisher binds
	// (default "inproc://collector-mdt<N>").
	Endpoint string
	// Router, when non-nil, switches the collector to clustered routing:
	// each resolved batch is split by the store partition function and
	// every slice is published to the partition owner's inbox topic. Nil
	// (the default) publishes whole batches on the classic per-MDT topic.
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
	// registry under "fsmon.collector.mdt<N>" and records per-stage
	// latency histograms. Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

func (o CollectorOptions) withDefaults() CollectorOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = pipeline.DefaultChangelogBatch
	}
	if o.PollInterval <= 0 {
		o.PollInterval = pipeline.DefaultPollInterval
	}
	if o.Endpoint == "" {
		o.Endpoint = fmt.Sprintf("inproc://collector-mdt%d", o.MDT)
	}
	if o.ResolveWorkers <= 0 {
		o.ResolveWorkers = pipeline.DefaultResolveWorkers
	}
	return o
}

// CollectorStats is a snapshot of one collector's counters.
type CollectorStats struct {
	MDT             int
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
	// Pipeline is the per-stage view (changelog-read → resolve → publish).
	Pipeline []pipeline.Stats
}

// readBatch is one Changelog read travelling between stages: the raw
// records, the purge cursor covering them, and the wall-clock capture
// stamp carried on the published batch for latency tracing (0 when the
// collector is untraced).
type readBatch struct {
	recs  []lustre.Record
	since uint64
	stamp int64
}

// pubBatch is a resolved batch awaiting publication; blk may be nil or
// empty (e.g. a read of only MARK records) in which case only the purge
// cursor advances. The capture stamp and any sampled span chain ride inside
// the block.
type pubBatch struct {
	blk   *events.Block
	since uint64
}

// Collector extracts, processes, and publishes one MDS's events as a
// changelog-read → resolve → publish pipeline.
type Collector struct {
	opts   CollectorOptions
	log    *lustre.Changelog
	res    *resolve.Resolver
	pub    *msgq.Pub
	topic  string
	reader string

	pipe *pipeline.Pipeline
	pool *pipeline.Pool[events.Block]

	recordsRead atomic.Uint64
	published   atomic.Uint64

	slog      *slog.Logger
	traced    bool                 // stamp batches at capture (telemetry attached)
	resolveUS *telemetry.Histogram // per-batch resolve stage wall time
	publishUS *telemetry.Histogram // per-batch publish stage wall time

	closeOnce sync.Once
}

// NewCollector creates and starts a collector.
func NewCollector(opts CollectorOptions) (*Collector, error) {
	opts = opts.withDefaults()
	if opts.Cluster == nil {
		return nil, errors.New("scalable: CollectorOptions.Cluster is required")
	}
	log, err := opts.Cluster.Changelog(opts.MDT)
	if err != nil {
		return nil, err
	}
	res, err := resolve.New(resolve.Options{
		Backend:         opts.Cluster,
		MountPoint:      opts.MountPoint,
		CacheSize:       opts.CacheSize,
		CacheShards:     opts.CacheShards,
		NegativeTTL:     opts.NegativeTTL,
		Workers:         opts.ResolveWorkers,
		EventOverhead:   opts.EventOverhead,
		CacheLookupCost: opts.CacheLookupCost,
	})
	if err != nil {
		return nil, err
	}
	pub := msgq.NewPub(msgq.WithBlockOnFull()) // §V-D2: no event loss — queue, don't drop
	if err := pub.Bind(opts.Endpoint); err != nil {
		return nil, err
	}
	c := &Collector{
		opts:  opts,
		log:   log,
		res:   res,
		pub:   pub,
		topic: fmt.Sprintf("%smdt%d", TopicPrefix, opts.MDT),
		pool:  pipeline.NewPool(0, newPoolBlock, (*events.Block).Reset),
	}
	c.reader = log.Register()
	c.slog = telemetry.ComponentLogger(opts.Logger, "collector", "mdt", opts.MDT)
	c.initTelemetry(opts.Telemetry)

	c.pipe = pipeline.New(opts.Context)
	read := pipeline.Source(c.pipe, "changelog-read", pipeline.DefaultBatchDepth, c.readLoop)
	resolved := pipeline.MapN(c.pipe, "resolve", pipeline.DefaultBatchDepth, opts.ResolveWorkers, read, c.resolveBatch)
	pipeline.Sink(c.pipe, "publish", resolved, c.publishBatch)
	c.registerTelemetry(opts.Telemetry)
	c.slog.Debug("collector started", "endpoint", c.pub.Addr(), "workers", opts.ResolveWorkers)
	return c, nil
}

// initTelemetry creates the hot-path instruments and arms capture
// stamping. It must run before the pipeline is built: stage goroutines
// read these fields without synchronization, so they have to be in place
// before any stage starts. No-op when reg is nil — untraced collectors
// publish unstamped batches and pay no wire or clock cost.
func (c *Collector) initTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	prefix := fmt.Sprintf("fsmon.collector.mdt%d", c.opts.MDT)
	c.resolveUS = reg.Histogram(prefix+".resolve_us", nil)
	c.publishUS = reg.Histogram(prefix+".publish_us", nil)
	c.traced = true
}

// traceN resolves the effective span-sampling rate at use time rather
// than construction time: the flight recorder's adaptive boost densifies
// the rate on a live deployment, so collectors must see rate changes per
// batch. The lookup is two atomic loads per batch, not per event.
func (c *Collector) traceN() int {
	return c.opts.Telemetry.TraceSampleN()
}

// audit resolves the delivery-conservation audit at use time rather than
// construction time: the classic Deploy builds collectors before the
// aggregator enables the audit on the shared registry, so a cached handle
// would always be nil. The lookup is one atomic pointer load per batch.
func (c *Collector) audit() *telemetry.Audit {
	return c.opts.Telemetry.Audit()
}

// registerTelemetry mirrors the collector into reg under
// "fsmon.collector.mdt<N>": GaugeFunc mirrors of every existing counter
// (pipeline stages, resolver, cache, publisher fan-out). Runs after the
// pipeline is built so the mirrors can close over live stages. No-op when
// reg is nil.
func (c *Collector) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	prefix := fmt.Sprintf("fsmon.collector.mdt%d", c.opts.MDT)
	reg.GaugeFunc(prefix+".records_read", func() float64 { return float64(c.recordsRead.Load()) })
	reg.GaugeFunc(prefix+".events_published", func() float64 { return float64(c.published.Load()) })
	reg.GaugeFunc(prefix+".changelog_lag", func() float64 { return float64(c.log.Len()) })
	c.res.RegisterTelemetry(reg, prefix+".resolver")
	c.pipe.RegisterTelemetry(reg, prefix+".pipeline")
	msgq.RegisterPubTelemetry(reg, prefix+".pub", c.pub)
}

// Endpoint returns the publisher endpoint consumers should connect to.
func (c *Collector) Endpoint() string { return c.pub.Addr() }

// Topic returns the topic this collector publishes under.
func (c *Collector) Topic() string { return c.topic }

// Resolver exposes the collector's shared resolution layer (stats,
// accounting).
func (c *Collector) Resolver() *resolve.Resolver { return c.res }

// readLoop is the changelog-read source stage (§IV-2). It does not
// consume Changelog records while nobody is subscribed: PUB/SUB gives no
// delivery guarantee without a subscriber, and purging unconsumed records
// would lose events if the aggregator attaches late or restarts mid-run.
// The gate guards every batch, so an aggregator crash pauses collection
// (the Changelog buffers) rather than losing events.
func (c *Collector) readLoop(ctx context.Context, emit func(readBatch) bool) error {
	idle := time.NewTimer(c.opts.PollInterval)
	defer idle.Stop()
	var since uint64
	for {
		if ctx.Err() != nil {
			return nil
		}
		if err := c.pub.WaitSubscribed(ctx); err != nil {
			return nil
		}
		recs := c.log.Read(since, c.opts.BatchSize)
		if len(recs) == 0 {
			idle.Reset(c.opts.PollInterval)
			select {
			case <-ctx.Done():
				return nil
			case <-idle.C:
			}
			continue
		}
		since = recs[len(recs)-1].Index
		c.recordsRead.Add(uint64(len(recs)))
		// With telemetry attached, stamp the batch at capture: the
		// published batch carries this wall-clock mark, so downstream
		// tiers (and other processes) can measure latency from this
		// moment. Untraced collectors leave the stamp at zero, which
		// keeps the wire encoding byte-identical to an uninstrumented
		// build.
		var stamp int64
		if c.traced {
			stamp = telemetry.Stamp()
		}
		if !emit(readBatch{recs: recs, since: since, stamp: stamp}) {
			return nil
		}
	}
}

// resolveBatch is the resolve stage: Algorithm 1 over every record of one
// read via the shared resolver, appending directly into a pooled event
// block — the strings land in the block's arena once and are never copied
// again on this process's hot path. Up to ResolveWorkers batches resolve
// concurrently (MapN re-sequences the outputs, so publish order stays
// Changelog order).
func (c *Collector) resolveBatch(_ context.Context, rb readBatch) (pubBatch, bool) {
	var start time.Time
	if c.resolveUS != nil {
		start = time.Now()
	}
	blk := c.pool.Get()
	c.res.TranslateBlock(blk, rb.recs)
	if c.resolveUS != nil {
		c.resolveUS.ObserveSince(start)
	}
	if blk.Len() == 0 {
		c.pool.Put(blk)
		return pubBatch{since: rb.since}, true
	}
	// The capture boundary of the conservation audit: every resolved
	// event is accounted here, before any publish can fail or split.
	c.audit().Captured(blk.Len())
	blk.SetStamp(rb.stamp)
	// Deterministic 1-in-N trace sampling: the first sampled event in the
	// batch opens the span chain — collect at the capture stamp, resolve
	// now. Keying on the event's identity hash means the same event is
	// picked at any batch boundary, so a test (or a rerun) traces the
	// same chain.
	if traceN := c.traceN(); traceN > 0 && rb.stamp != 0 {
		for i := 0; i < blk.Len(); i++ {
			if key := blk.EventKey(i); traceN == 1 || key%uint64(traceN) == 0 {
				tr := &events.BatchTrace{ID: key}
				tr.Append(events.TierCollect, rb.stamp)
				tr.Append(events.TierResolve, time.Now().UnixNano())
				blk.SetTrace(tr)
				break
			}
		}
	}
	return pubBatch{blk: blk, since: rb.since}, true
}

// publishBatch is the publish sink stage: marshal, publish to at least
// one subscriber, then purge the Changelog up to the batch's cursor —
// "after processing a batch of file system events from the Changelog, a
// collector will purge the Changelogs." Purging strictly after delivery
// preserves the no-loss guarantee: if the aggregator is gone (or, routed,
// any slice's owner is) the batch's records stay in the Changelog for the
// next collector.
func (c *Collector) publishBatch(ctx context.Context, pb pubBatch) {
	purge := true
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
		var published bool
		if c.opts.Router != nil {
			published = c.publishRouted(ctx, blk)
		} else {
			var shared bool
			published, shared = c.deliver(ctx, c.topic, blk)
			if published {
				c.published.Add(uint64(blk.Len()))
				c.audit().Published(blk.Len())
			}
			if !shared {
				c.pool.Put(blk)
			}
		}
		purge = published
		if published && c.publishUS != nil {
			c.publishUS.ObserveSince(start)
		}
	}
	if purge {
		if err := c.log.Clear(c.reader, pb.since); err != nil {
			c.slog.Warn("changelog purge failed", "since", pb.since, "err", err)
		}
	}
}

// deliver publishes blk on topic until at least one subscriber accepts it
// or ctx is canceled. A zero count means no subscriber accepted the batch
// — all detached between the wait and the send, or a fresh TCP link has
// not registered its topics yet — so pause and re-wait rather than losing
// the batch; the block's wire image is encoded at most once across the
// retries. Reports delivery and whether an in-process subscriber now
// shares the block (a failed delivery never shares).
func (c *Collector) deliver(ctx context.Context, topic string, blk *events.Block) (ok, shared bool) {
	for {
		if err := c.pub.WaitSubscribed(ctx); err != nil {
			return false, shared
		}
		n, sh := c.pub.PublishBlockCtx(ctx, topic, blk)
		shared = shared || sh
		if n > 0 {
			return true, shared
		}
		select {
		case <-ctx.Done():
		case <-time.After(c.opts.PollInterval):
		}
		if ctx.Err() != nil {
			return false, shared
		}
	}
}

// routeDeliver publishes blk to the current owner of part, re-resolving
// the owner between attempts: a batch in flight across a partition
// handoff retargets to the new owner instead of stalling on the dead
// one's topic.
func (c *Collector) routeDeliver(ctx context.Context, part int, blk *events.Block) (ok, shared bool) {
	for {
		if topic, assigned := c.opts.Router.OwnerTopic(part); assigned {
			if err := c.pub.WaitSubscribed(ctx); err != nil {
				return false, shared
			}
			n, sh := c.pub.PublishBlockCtx(ctx, topic, blk)
			shared = shared || sh
			if n > 0 {
				return true, shared
			}
		}
		select {
		case <-ctx.Done():
		case <-time.After(c.opts.PollInterval):
		}
		if ctx.Err() != nil {
			return false, shared
		}
	}
}

// publishRouted splits blk by store partition and delivers each slice to
// its owning node's inbox topic, reporting whether every slice was
// delivered (the batch's Changelog records may purge only then). The
// single-partition cluster routes the whole block unsplit — the owner
// receives the identical batch a classic aggregator would.
func (c *Collector) publishRouted(ctx context.Context, blk *events.Block) bool {
	parts := c.opts.Router.Parts()
	if parts <= 1 {
		ok, shared := c.routeDeliver(ctx, 0, blk)
		if ok {
			c.published.Add(uint64(blk.Len()))
			c.audit().Published(blk.Len())
		}
		if !shared {
			c.pool.Put(blk)
		}
		return ok
	}
	// The aggregator's own partitioner, run at the source. The views adopt
	// blk's arena by reference, so blk must outlive every view: it recycles
	// only below, and never once any view is shared with an in-process
	// subscriber.
	views, _ := splitByPath(c.pool, blk, parts)
	all, anyShared := true, false
	for p, v := range views {
		if v == nil {
			continue
		}
		if !all {
			// A previous slice failed (context canceled): release the
			// rest undelivered. Reset drops their arena alias safely.
			c.pool.Put(v)
			continue
		}
		ok, sh := c.routeDeliver(ctx, p, v)
		if ok {
			c.published.Add(uint64(v.Len()))
			c.audit().Published(v.Len())
			if sh {
				anyShared = true
			} else {
				c.pool.Put(v)
			}
		} else {
			all = false
			c.pool.Put(v) // failed deliveries never share
		}
	}
	if !anyShared {
		c.pool.Put(blk)
	}
	return all
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() CollectorStats {
	rs := c.res.Stats()
	return CollectorStats{
		MDT:             c.opts.MDT,
		RecordsRead:     c.recordsRead.Load(),
		EventsPublished: c.published.Load(),
		Fid2PathCalls:   rs.Fid2PathCalls,
		Fid2PathStale:   rs.Fid2PathStale,
		Fid2PathErrors:  rs.Fid2PathErrors,
		Cache:           rs.Cache,
		BusyTime:        c.res.Busy(),
		Utilization:     c.res.Utilization(),
		ChangelogLag:    c.log.Len(),
		Pipeline:        c.pipe.Stats(),
	}
}

// ResetAccounting restarts the utilization window (benchmarks call this at
// the start of a measurement interval).
func (c *Collector) ResetAccounting() { c.res.ResetAccounting() }

// Close drains the collector's stages in order (read stops, in-flight
// batches resolve and publish), releases its Changelog reader, and closes
// the publisher.
func (c *Collector) Close() {
	c.closeOnce.Do(func() {
		c.pipe.Drain(pipeline.DefaultDrainGrace)
		_ = c.log.Deregister(c.reader)
		c.pub.Close()
	})
}
