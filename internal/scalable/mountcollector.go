package scalable

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/mount"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/metrics"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/telemetry"
)

// MountTopicPrefix is the message-queue topic prefix for per-mount
// collector batches: TopicPrefix + "mount." + <mount name>. It shares the
// aggregator's subscription prefix with the per-MDT topics, so mount
// collectors feed the existing aggregation tier unchanged (their batches
// take the aggregator's path-hash partition split).
const MountTopicPrefix = TopicPrefix + "mount."

// MountCollectorOptions configures one per-mount collector service: the
// analogue of the per-MDS Changelog collector for an arbitrary mounted
// DSI. Where the Lustre collector extracts records and resolves FIDs, the
// mount collector drains an already-standardized DSI stream, rewrites it
// into the unified namespace, batches, and publishes — the collect →
// rewrite/batch → publish pipeline.
type MountCollectorOptions struct {
	// Prefix is the unified-namespace mount point (e.g. "/lustre").
	Prefix string
	// Name is the telemetry-safe mount name
	// (default mount.PointName(Prefix)).
	Name string
	// Root is the unified-namespace root reported on published events
	// (default "/").
	Root string
	// DSI is the mounted backend; the collector owns it (Close closes it).
	DSI dsi.DSI
	// Endpoint is the msgq endpoint the collector's publisher binds
	// (default "inproc://collector-mount-<name>").
	Endpoint string
	// BatchSize bounds events per published batch
	// (default pipeline.DefaultLocalBatch).
	BatchSize int
	// FlushInterval bounds how long a partial batch may age before it is
	// published anyway (default pipeline.DefaultBatchInterval).
	FlushInterval time.Duration
	// Context aborts the collector when canceled (Close remains the
	// graceful path). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors the collector into the unified
	// registry under "fsmon.mount.<name>" — the per-mount paper-parity
	// capture counters. Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

func (o MountCollectorOptions) withDefaults() (MountCollectorOptions, error) {
	cp, err := mount.CleanPrefix(o.Prefix)
	if err != nil {
		return o, err
	}
	o.Prefix = cp
	if o.Name == "" {
		o.Name = mount.PointName(cp)
	}
	if o.Root == "" {
		o.Root = "/"
	}
	if o.Endpoint == "" {
		o.Endpoint = "inproc://collector-mount-" + o.Name
	}
	if o.BatchSize <= 0 {
		o.BatchSize = pipeline.DefaultLocalBatch
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = pipeline.DefaultBatchInterval
	}
	return o, nil
}

// MountCollectorStats is a snapshot of one mount collector's counters.
type MountCollectorStats struct {
	// Name and Prefix identify the mount.
	Name   string
	Prefix string
	// Backend is the mounted DSI's name.
	Backend string
	// Captured counts events drained from the DSI — the per-mount
	// capture counter.
	Captured uint64
	// Published counts events delivered to the aggregation tier.
	Published uint64
	// Dropped counts events the mounted backend lost internally.
	Dropped uint64
	// Pipeline is the per-stage view (collect → publish).
	Pipeline []pipeline.Stats
}

// mountBatch is one rewritten batch travelling to the publish stage as an
// event block (the capture stamp rides inside the block).
type mountBatch struct {
	blk *events.Block
}

// MountCollector drains one mounted DSI, rewrites its events into the
// unified namespace, and publishes batches to the aggregation tier.
type MountCollector struct {
	opts  MountCollectorOptions
	pub   *msgq.Pub
	topic string

	pipe *pipeline.Pipeline
	pool *pipeline.Pool[events.Block]

	captured  atomic.Uint64
	published atomic.Uint64

	slog   *slog.Logger
	traced bool

	closeOnce sync.Once
}

// NewMountCollector creates and starts a per-mount collector.
func NewMountCollector(opts MountCollectorOptions) (*MountCollector, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if opts.DSI == nil {
		return nil, errors.New("scalable: MountCollectorOptions.DSI is required")
	}
	pub := msgq.NewPub(msgq.WithBlockOnFull()) // §V-D2: no event loss — queue, don't drop
	if err := pub.Bind(opts.Endpoint); err != nil {
		return nil, err
	}
	c := &MountCollector{
		opts:  opts,
		pub:   pub,
		topic: MountTopicPrefix + opts.Name,
		pool:  pipeline.NewPool(0, newPoolBlock, (*events.Block).Reset),
	}
	c.slog = telemetry.ComponentLogger(opts.Logger, "mount-collector", "mount", opts.Name)
	c.traced = opts.Telemetry != nil

	c.pipe = pipeline.New(opts.Context)
	collected := pipeline.Source(c.pipe, "collect", pipeline.DefaultBatchDepth, c.collectLoop)
	pipeline.Sink(c.pipe, "publish", collected, c.publishBatch)
	c.registerTelemetry(opts.Telemetry)
	c.slog.Debug("mount collector started", "prefix", opts.Prefix, "backend", opts.DSI.Name(), "endpoint", pub.Addr())
	return c, nil
}

// registerTelemetry mirrors the collector under "fsmon.mount.<name>":
// the paper-parity per-mount capture counters plus pipeline and publisher
// views. No-op when reg is nil.
func (c *MountCollector) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	prefix := "fsmon.mount." + c.opts.Name
	reg.GaugeFunc(prefix+".captured", func() float64 { return float64(c.captured.Load()) })
	reg.GaugeFunc(prefix+".published", func() float64 { return float64(c.published.Load()) })
	reg.GaugeFunc(prefix+".dropped", func() float64 { return float64(c.opts.DSI.Dropped()) })
	c.pipe.RegisterTelemetry(reg, prefix+".pipeline")
	msgq.RegisterPubTelemetry(reg, prefix+".pub", c.pub)
}

// Endpoint returns the publisher endpoint the aggregator connects to.
func (c *MountCollector) Endpoint() string { return c.pub.Addr() }

// Topic returns the topic this collector publishes under.
func (c *MountCollector) Topic() string { return c.topic }

// collectLoop is the collect source stage: drain the DSI, rewrite each
// event into the unified namespace, and emit size- or age-bounded batches.
func (c *MountCollector) collectLoop(ctx context.Context, emit func(mountBatch) bool) error {
	flush := time.NewTimer(c.opts.FlushInterval)
	defer flush.Stop()
	var blk *events.Block
	send := func() bool {
		if blk == nil {
			return true
		}
		if blk.Len() == 0 {
			c.pool.Put(blk)
			blk = nil
			return true
		}
		ok := emit(mountBatch{blk: blk})
		blk = nil
		return ok
	}
	for {
		select {
		case <-ctx.Done():
			send()
			return nil
		case e, ok := <-c.opts.DSI.Events():
			if !ok {
				send()
				return nil
			}
			if blk == nil {
				blk = c.pool.Get()
				// Stamp the batch at capture when telemetry is attached;
				// untraced collectors publish unstamped batches, keeping
				// the wire byte-identical to an uninstrumented build.
				if c.traced {
					blk.SetStamp(telemetry.Stamp())
				}
			}
			c.captured.Add(1)
			if err := blk.AppendEvent(mount.Rewrite(c.opts.Root, c.opts.Prefix, e)); err != nil {
				// Wire-limit violations only (a 64KiB path component) —
				// drop the event, keep the batch.
				c.slog.Error("dropping unencodable event", "err", err)
			}
			if blk.Len() >= c.opts.BatchSize {
				if !send() {
					return nil
				}
				flush.Reset(c.opts.FlushInterval)
			}
		case <-flush.C:
			if !send() {
				return nil
			}
			flush.Reset(c.opts.FlushInterval)
		}
	}
}

// publishBatch is the publish sink stage: marshal and deliver to at least
// one subscriber (the aggregator), pausing rather than dropping while no
// subscriber is attached — the same no-loss contract as the Changelog
// collector, with the mounted DSI's channel as the holding buffer.
func (c *MountCollector) publishBatch(ctx context.Context, mb mountBatch) {
	blk := mb.blk
	shared := false
	defer func() {
		if !shared {
			c.pool.Put(blk)
		}
	}()
	for {
		if err := c.pub.WaitSubscribed(ctx); err != nil {
			return
		}
		n, sh := c.pub.PublishBlockCtx(ctx, c.topic, blk)
		shared = shared || sh
		if n > 0 {
			c.published.Add(uint64(blk.Len()))
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(pipeline.DefaultPollInterval):
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// Stats returns a snapshot of the collector's counters.
func (c *MountCollector) Stats() MountCollectorStats {
	return MountCollectorStats{
		Name:      c.opts.Name,
		Prefix:    c.opts.Prefix,
		Backend:   c.opts.DSI.Name(),
		Captured:  c.captured.Load(),
		Published: c.published.Load(),
		Dropped:   c.opts.DSI.Dropped(),
		Pipeline:  c.pipe.Stats(),
	}
}

// Close stops the collector: the mounted DSI closes first (its buffered
// events drain through collect → publish), then the stages and publisher.
func (c *MountCollector) Close() {
	c.closeOnce.Do(func() {
		_ = c.opts.DSI.Close()
		c.pipe.Drain(pipeline.DefaultDrainGrace)
		c.pub.Close()
	})
}

// MountSource names one mounted backend for DeployMounts. The DSI is
// typically opened through the dsi registry; the deployment owns it.
type MountSource struct {
	// Prefix is the unified-namespace mount point.
	Prefix string
	// Name overrides the telemetry-safe mount name
	// (default mount.PointName(Prefix)).
	Name string
	// DSI is the opened backend to mount.
	DSI dsi.DSI
}

// MountDeployOptions configures a multi-backend scalable deployment: one
// MountCollector per mount feeding one aggregation tier.
type MountDeployOptions struct {
	// Root is the unified-namespace root reported on events (default "/").
	Root string
	// Transport selects endpoints: "inproc" (default) or "tcp".
	Transport string
	// Engine / StorePartitions configure the aggregator's reliable store
	// exactly as in DeployOptions.
	Engine          *eventstore.Sharded
	StorePartitions int
	// BatchSize / FlushInterval tune every mount collector's batching.
	BatchSize     int
	FlushInterval time.Duration
	// Context aborts every deployed service when canceled.
	Context context.Context
	// Telemetry mirrors every component into the unified registry
	// (fsmon.mount.<name>.*, fsmon.aggregator.*, fsmon.store.p<i>.*).
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

// MountMonitor is a running multi-backend scalable deployment.
type MountMonitor struct {
	Collectors []*MountCollector
	Aggregator *Aggregator
	opts       MountDeployOptions
}

// DeployMounts starts a MountCollector per mounted backend and one
// aggregator subscribed to all of them — the Fig. 4 topology with
// heterogeneous storage behind the collectors: every mount's stream
// arrives at consumers through the same store-and-republish tier,
// correctly prefixed into one namespace.
func DeployMounts(mounts []MountSource, opts MountDeployOptions) (*MountMonitor, error) {
	if len(mounts) == 0 {
		return nil, errors.New("scalable: DeployMounts needs at least one mount")
	}
	if opts.Root == "" {
		opts.Root = "/"
	}
	m := &MountMonitor{opts: opts}
	endpoints := make([]string, 0, len(mounts))
	seen := make(map[string]bool, len(mounts))
	for _, ms := range mounts {
		cp, err := mount.CleanPrefix(ms.Prefix)
		if err != nil {
			m.Close()
			return nil, err
		}
		if seen[cp] {
			m.Close()
			return nil, fmt.Errorf("%w: %s", mount.ErrMounted, cp)
		}
		seen[cp] = true
		ep := ""
		if opts.Transport == "tcp" {
			ep = "tcp://127.0.0.1:0"
		}
		col, err := NewMountCollector(MountCollectorOptions{
			Prefix:        cp,
			Name:          ms.Name,
			Root:          opts.Root,
			DSI:           ms.DSI,
			Endpoint:      ep,
			BatchSize:     opts.BatchSize,
			FlushInterval: opts.FlushInterval,
			Context:       opts.Context,
			Telemetry:     opts.Telemetry,
			Logger:        opts.Logger,
		})
		if err != nil {
			m.Close()
			return nil, err
		}
		m.Collectors = append(m.Collectors, col)
		endpoints = append(endpoints, col.Endpoint())
	}
	aggEp := fmt.Sprintf("inproc://aggregator-mounts-%p", m)
	if opts.Transport == "tcp" {
		aggEp = "tcp://127.0.0.1:0"
	}
	agg, err := NewAggregator(AggregatorOptions{
		CollectorEndpoints: endpoints,
		Endpoint:           aggEp,
		Engine:             opts.Engine,
		StorePartitions:    opts.StorePartitions,
		Context:            opts.Context,
		Telemetry:          opts.Telemetry,
		Logger:             opts.Logger,
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	m.Aggregator = agg
	metrics.Register(opts.Telemetry)
	return m, nil
}

// NewConsumer attaches a consumer to the deployment's aggregator with
// in-process fault recovery, exactly as Monitor.NewConsumer does.
func (m *MountMonitor) NewConsumer(filter iface.Filter, sinceSeq uint64) (*Consumer, error) {
	return NewConsumer(ConsumerOptions{
		AggregatorEndpoint: m.Aggregator.Endpoint(),
		Filter:             filter,
		Recover:            m.Aggregator,
		SinceSeq:           sinceSeq,
		StorePartitions:    m.Aggregator.Partitions(),
		Context:            m.opts.Context,
		Telemetry:          m.opts.Telemetry,
		Logger:             m.opts.Logger,
	})
}

// MountStats gathers per-component snapshots of a mount deployment.
type MountStats struct {
	Collectors []MountCollectorStats
	Aggregator AggregatorStats
}

// Stats returns a deployment-wide snapshot.
func (m *MountMonitor) Stats() MountStats {
	st := MountStats{}
	for _, c := range m.Collectors {
		st.Collectors = append(st.Collectors, c.Stats())
	}
	if m.Aggregator != nil {
		st.Aggregator = m.Aggregator.Stats()
	}
	return st
}

// Close stops every component (collectors first, then the aggregator).
func (m *MountMonitor) Close() {
	for _, c := range m.Collectors {
		c.Close()
	}
	if m.Aggregator != nil {
		m.Aggregator.Close()
	}
}
