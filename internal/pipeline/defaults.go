package pipeline

import "time"

// Centralized tuning defaults shared by both event paths. Before this
// package existed these drifted between resolution.Options,
// scalable.CollectorOptions, and the msgq/iface buffer literals; every
// value below is the single source of truth both paths now consume.
const (
	// DefaultLocalBatch is the resolution-layer emit batch size — small
	// enough to keep local-path latency low (§III batching).
	DefaultLocalBatch = 256

	// DefaultChangelogBatch is the collector's Changelog read/publish
	// batch — larger because MDS reads amortize per-record syscall cost
	// (§IV-B, Table VIII uses 512-record reads).
	DefaultChangelogBatch = 512

	// DefaultQueueSize bounds the resolution intake queue (events).
	DefaultQueueSize = 16384

	// DefaultDSIBuffer is the DSI event channel capacity (dsi.NewBase and
	// the mount table's merged channel) — large enough to absorb a native
	// watcher's burst between resolution-layer reads. Config.Buffer
	// overrides it per backend and per mount.
	DefaultDSIBuffer = 8192

	// DefaultAggregatorQueue bounds each queue between the scalable tiers —
	// the aggregator's subscription buffer, a scalable consumer's, and a
	// publisher's send queue per TCP subscriber (msgq.WithHWM) — counted in
	// what it holds: blocks of up to
	// DefaultChangelogBatch events, each on loan from the publisher's pool
	// until the subscriber is done with it. It is the paper's small
	// processing queue (§IV-2), not a burst absorber: behind a full one the
	// publisher blocks and the backlog waits in the Changelog, where it
	// survives a crash. Keep it <= DefaultPoolSlots, or a steady drain keeps
	// more blocks in flight than the pools can take back.
	DefaultAggregatorQueue = 64

	// DefaultSubscriberBuffer bounds per-subscriber delivery queues
	// (interface-layer subscriptions and scalable consumers alike).
	DefaultSubscriberBuffer = 1024

	// DefaultStageBuffer is the bounded-queue depth between adjacent
	// event-granularity stages.
	DefaultStageBuffer = 64

	// DefaultBatchDepth is the bounded-queue depth between adjacent
	// batch-granularity stages (units are whole batches, so a few are
	// enough read-ahead without unbounded memory).
	DefaultBatchDepth = 8

	// DefaultRenameCache is the rename-pairing cookie cache capacity.
	DefaultRenameCache = 1024

	// DefaultPoolSlots is how many recycled objects a SlicePool or Pool
	// retains (>= DefaultAggregatorQueue, so every block a full
	// subscription queue gives back finds a slot).
	DefaultPoolSlots = 64

	// DefaultResolveWorkers is the collector resolve-stage parallelism.
	// 1 keeps the paper's serial collector — Tables V–VIII are calibrated
	// against a single resolution server — so parallel resolution is an
	// explicit knob, not a silent default change.
	DefaultResolveWorkers = 1

	// DefaultCacheShards is the fid→path cache shard count. Sixteen
	// shards keep lock contention negligible up to the worker counts a
	// single collector realistically runs while wasting little capacity
	// to per-shard rounding.
	DefaultCacheShards = 16

	// DefaultStorePartitions is the aggregation-tier partition count.
	// 1 keeps the paper's single aggregator store — Tables IV and VII are
	// calibrated against one serial store thread and one sequence lane —
	// so the sharded store is an explicit knob, not a silent default
	// change (mirroring DefaultResolveWorkers).
	DefaultStorePartitions = 1
)

const (
	// DefaultBatchInterval is the age bound on a partial batch: a
	// non-full batch is flushed after this long so batching never adds
	// unbounded latency.
	DefaultBatchInterval = 10 * time.Millisecond

	// DefaultPollInterval is how long a source idles when its feed
	// (Changelog, scan target) had nothing new.
	DefaultPollInterval = time.Millisecond

	// DefaultDrainGrace bounds graceful shutdown: Drain escalates to
	// Abort if the ordered drain takes longer than this.
	DefaultDrainGrace = 5 * time.Second

	// DefaultNegativeTTL is the recommended retention for negative-cached
	// stale-FID failures when negative caching is enabled. It is long
	// enough to absorb a burst of records for a just-deleted FID but
	// short enough that a recycled FID resolves promptly. Negative
	// caching is off by default: Algorithm 1 pays the fid2path call on
	// every dead-FID miss, and Table VIII's cache-size sweep depends on
	// that cost, so enabling it is an explicit opt-in.
	DefaultNegativeTTL = 2 * time.Second
)
