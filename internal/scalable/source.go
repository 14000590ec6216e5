package scalable

import (
	"context"
	"fmt"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/mount"
	"fsmonitor/internal/events"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/resolve"
	"fsmonitor/internal/telemetry"
)

// source is the capture side of a Collector — what is extracted, and how
// the extraction is acknowledged and stopped. Everything after a block is
// sealed (Collector.seal, the publish tail) is shared. Two implementations:
// an MDT's Changelog and an arbitrary mounted DSI.
type source interface {
	// capture builds the source's stages on the collector's pipeline
	// (mirroring its own counters into the registry, if there is one) and
	// returns the flow of sealed batches.
	capture() pipeline.Flow[pubBatch]
	// ack tells the source every subscriber-accepted batch up to since is
	// safe to forget.
	ack(since uint64)
	// close stops the source around drain, which runs the collector's
	// in-flight batches out through publish.
	close(drain func())
	stats(st *CollectorStats)
	resetAccounting()
}

// changelogSource captures one MDT's Changelog (§IV-2): changelog-read →
// resolve, acknowledged by purging the log.
type changelogSource struct {
	c      *Collector
	log    *lustre.Changelog
	reader string
	res    *resolve.Resolver

	resolveUS *telemetry.Histogram // per-batch resolve stage wall time
}

// readBatch is one Changelog read travelling to the resolve stage: the raw
// records, the purge cursor covering them, and the capture stamp.
type readBatch struct {
	recs  []lustre.Record
	since uint64
	stamp int64
}

func (c *Collector) openChangelog() error {
	o := &c.opts
	if o.BatchSize <= 0 {
		o.BatchSize = pipeline.DefaultChangelogBatch
	}
	if o.ResolveWorkers <= 0 {
		o.ResolveWorkers = pipeline.DefaultResolveWorkers
	}
	if o.Endpoint == "" {
		o.Endpoint = fmt.Sprintf("inproc://collector-mdt%d", o.MDT)
	}
	log, err := o.Cluster.Changelog(o.MDT)
	if err != nil {
		return err
	}
	res, err := resolve.New(resolve.Options{
		Backend:         o.Cluster,
		MountPoint:      o.MountPoint,
		CacheSize:       o.CacheSize,
		CacheShards:     o.CacheShards,
		NegativeTTL:     o.NegativeTTL,
		Workers:         o.ResolveWorkers,
		EventOverhead:   o.EventOverhead,
		CacheLookupCost: o.CacheLookupCost,
	})
	if err != nil {
		return err
	}
	s := &changelogSource{c: c, log: log, res: res}
	c.src = s
	c.topic = fmt.Sprintf("%smdt%d", TopicPrefix, o.MDT)
	c.metrics = fmt.Sprintf("fsmon.collector.mdt%d", o.MDT)
	c.slog = telemetry.ComponentLogger(o.Logger, "collector", "mdt", o.MDT)
	if o.Telemetry != nil {
		s.resolveUS = o.Telemetry.Histogram(c.metrics+".resolve_us", nil)
	}
	return nil
}

func (s *changelogSource) capture() pipeline.Flow[pubBatch] {
	// Registered only now, with the publisher bound: a reader that is
	// never served would pin the Changelog against every purge.
	s.reader = s.log.Register()
	c := s.c
	if reg, prefix := c.opts.Telemetry, c.metrics; reg != nil {
		reg.GaugeFunc(prefix+".records_read", func() float64 { return float64(c.read.Load()) })
		reg.GaugeFunc(prefix+".events_published", func() float64 { return float64(c.published.Load()) })
		reg.GaugeFunc(prefix+".changelog_lag", func() float64 { return float64(s.log.Len()) })
		s.res.RegisterTelemetry(reg, prefix+".resolver")
	}
	read := pipeline.Source(c.pipe, "changelog-read", pipeline.DefaultBatchDepth, s.readLoop)
	return pipeline.MapN(c.pipe, "resolve", pipeline.DefaultBatchDepth, c.opts.ResolveWorkers, read, s.resolveBatch)
}

// readLoop is the changelog-read source stage (§IV-2). It does not
// consume Changelog records while nobody is subscribed: PUB/SUB gives no
// delivery guarantee without a subscriber, and purging unconsumed records
// would lose events if the aggregator attaches late or restarts mid-run.
// The gate guards every batch, so an aggregator crash pauses collection
// (the Changelog buffers) rather than losing events. An empty read waits
// on the Changelog's Follow, so an idle collector sleeps until the next
// append instead of waking on a timer.
func (s *changelogSource) readLoop(ctx context.Context, emit func(readBatch) bool) error {
	c := s.c
	var since uint64
	for {
		if ctx.Err() != nil {
			return nil
		}
		if err := c.pub.WaitSubscribed(ctx); err != nil {
			return nil
		}
		recs := s.log.Read(since, c.opts.BatchSize)
		if len(recs) == 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-s.log.Follow(since):
			}
			continue
		}
		since = recs[len(recs)-1].Index
		c.read.Add(uint64(len(recs)))
		if !emit(readBatch{recs: recs, since: since, stamp: c.stamp()}) {
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
func (s *changelogSource) resolveBatch(_ context.Context, rb readBatch) (pubBatch, bool) {
	var start time.Time
	if s.resolveUS != nil {
		start = time.Now()
	}
	blk := s.c.pool.Get()
	s.res.TranslateBlock(blk, rb.recs)
	if s.resolveUS != nil {
		s.resolveUS.ObserveSince(start)
	}
	if blk.Len() == 0 {
		s.c.pool.Put(blk)
		return pubBatch{since: rb.since}, true
	}
	s.c.seal(blk, rb.stamp)
	return pubBatch{blk: blk, since: rb.since}, true
}

func (s *changelogSource) ack(since uint64) {
	if err := s.log.Clear(s.reader, since); err != nil {
		s.c.slog.Warn("changelog purge failed", "since", since, "err", err)
	}
}

// close drains first — reading has stopped, in-flight batches resolve,
// publish and purge — and only then releases the Changelog reader.
func (s *changelogSource) close(drain func()) {
	drain()
	_ = s.log.Deregister(s.reader)
}

func (s *changelogSource) stats(st *CollectorStats) {
	rs := s.res.Stats()
	st.Fid2PathCalls = rs.Fid2PathCalls
	st.Fid2PathStale = rs.Fid2PathStale
	st.Fid2PathErrors = rs.Fid2PathErrors
	st.Cache = rs.Cache
	st.BusyTime = s.res.Busy()
	st.Utilization = s.res.Utilization()
	st.ChangelogLag = s.log.Len()
}

func (s *changelogSource) resetAccounting() { s.res.ResetAccounting() }

// dsiSource captures one mounted DSI: the analogue of the per-MDS
// Changelog source for arbitrary storage. Where that one extracts records
// and resolves FIDs, this one drains an already-standardized stream,
// rewrites it into the unified namespace and batches it — a single collect
// stage. There is nothing to acknowledge: the DSI's channel is the holding
// buffer while no subscriber is attached.
type dsiSource struct {
	c      *Collector
	dsi    dsi.DSI
	prefix string // cleaned mount prefix
	name   string
	eof    chan struct{} // closed when collect returns
}

// mountName returns a mounted backend's cleaned prefix and its name — the
// one its topic (mountTopic) and its fsmon.mount.<name>.* telemetry carry.
func mountName(ms MountSource) (prefix, name string, err error) {
	if prefix, err = mount.CleanPrefix(ms.Prefix); err != nil {
		return "", "", err
	}
	if name = ms.Name; name == "" {
		name = mount.PointName(prefix)
	}
	return prefix, name, nil
}

// mountTopic is the topic a mounted backend's collector publishes on.
func mountTopic(name string) string { return TopicPrefix + "mount." + name }

func (c *Collector) openDSI() error {
	o := &c.opts
	cp, name, err := mountName(o.Mount)
	if err != nil {
		return err
	}
	if o.BatchSize <= 0 {
		o.BatchSize = pipeline.DefaultLocalBatch
	}
	if o.Endpoint == "" {
		o.Endpoint = "inproc://collector-mount-" + name
	}
	c.src = &dsiSource{c: c, dsi: o.Mount.DSI, prefix: cp, name: name, eof: make(chan struct{})}
	c.topic = mountTopic(name)
	c.metrics = "fsmon.mount." + name
	c.slog = telemetry.ComponentLogger(o.Logger, "mount-collector", "mount", name, "backend", o.Mount.DSI.Name())
	return nil
}

func (s *dsiSource) capture() pipeline.Flow[pubBatch] {
	c := s.c
	if reg, prefix := c.opts.Telemetry, c.metrics; reg != nil {
		// The per-mount paper-parity capture counters.
		reg.GaugeFunc(prefix+".captured", func() float64 { return float64(c.read.Load()) })
		reg.GaugeFunc(prefix+".published", func() float64 { return float64(c.published.Load()) })
		reg.GaugeFunc(prefix+".dropped", func() float64 { return float64(s.dsi.Dropped()) })
	}
	return pipeline.Source(c.pipe, "collect", pipeline.DefaultBatchDepth, s.collect)
}

// collect is the collect source stage: drain the DSI, rewrite each event
// into the unified namespace, and emit size- or age-bounded batches.
func (s *dsiSource) collect(ctx context.Context, emit func(pubBatch) bool) error {
	defer close(s.eof)
	c := s.c
	flush := time.NewTimer(pipeline.DefaultBatchInterval)
	defer flush.Stop()
	var blk *events.Block
	var stamp int64
	send := func() bool {
		b := blk
		blk = nil
		if b == nil {
			return true
		}
		if b.Len() == 0 {
			c.pool.Put(b)
			return true
		}
		c.seal(b, stamp)
		return emit(pubBatch{blk: b})
	}
	for {
		select {
		case <-ctx.Done():
			send()
			return nil
		case e, ok := <-s.dsi.Events():
			if !ok {
				send()
				return nil
			}
			if blk == nil {
				blk, stamp = c.pool.Get(), c.stamp()
			}
			c.read.Add(1)
			if err := blk.AppendEvent(mount.Rewrite("/", s.prefix, e)); err != nil {
				// Wire-limit violations only (a 64KiB path component) —
				// drop the event, keep the batch.
				c.slog.Error("dropping unencodable event", "err", err)
			}
			if blk.Len() >= c.opts.BatchSize {
				if !send() {
					return nil
				}
				flush.Reset(pipeline.DefaultBatchInterval)
			}
		case <-flush.C:
			if !send() {
				return nil
			}
			flush.Reset(pipeline.DefaultBatchInterval)
		}
	}
}

func (s *dsiSource) ack(uint64) {}

// close closes the DSI first, so nothing new arrives, and lets collect read
// the DSI's channel to its end before the stages drain: the drain cancels
// collect, which would drop whatever the DSI still held in its buffer. The
// wait is bounded by the same grace as the drain.
func (s *dsiSource) close(drain func()) {
	_ = s.dsi.Close()
	select {
	case <-s.eof:
	case <-time.After(pipeline.DefaultDrainGrace):
	}
	drain()
}

func (s *dsiSource) stats(st *CollectorStats) { st.Mount = s.name }

func (s *dsiSource) resetAccounting() {}
