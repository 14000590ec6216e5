package scalable

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pace"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/telemetry"
)

// ConsumerOptions configures a consumer service.
type ConsumerOptions struct {
	// AggregatorEndpoint is the aggregator's publisher endpoint.
	AggregatorEndpoint string
	// AggregatorEndpoints lists additional aggregator publisher endpoints
	// the consumer subscribes to — the clustered aggregation tier, where
	// each node republishes the partitions it owns. The consumer receives
	// every partition's stream regardless of which node republishes it
	// (partition handoff moves a topic between endpoints transparently).
	// At least one of AggregatorEndpoint/AggregatorEndpoints is required.
	AggregatorEndpoints []string
	// Filter selects the events this consumer's application wants.
	// Filtering happens here, at the consumer, "in order to alleviate
	// potential overheads if a large number of consumers were to ask to
	// monitor different files and directories" (§IV-2 Consumption).
	Filter iface.Filter
	// Recover is the fault-recovery source (usually the Aggregator);
	// nil disables recovery.
	Recover RecoverySource
	// SinceSeq resumes delivery after this sequence number, replaying
	// history from Recover first (consumer restart). With a partitioned
	// aggregator it acts as a global cutoff across every partition.
	SinceSeq uint64
	// SinceVector resumes delivery after per-partition cursors (one per
	// store partition, as returned by LastSeqVector on a previous
	// consumer) — the precise resume for partitioned aggregators, where
	// a single global seq cannot express "partition 0 drained further
	// than partition 1". When set it determines the partition count and
	// takes precedence over SinceSeq.
	SinceVector []uint64
	// StorePartitions is the aggregator's partition count, needed to
	// map a sequence number back to its partition (Seq % P) for
	// deduplication. Defaults to the Recover source's partition count
	// when it exposes one, else 1. Must match the aggregator.
	StorePartitions int
	// Buffer is the application-facing delivery channel's capacity in
	// batches (default pipeline.DefaultSubscriberBuffer). The subscription
	// buffer in front of it is not configurable: it holds
	// pipeline.DefaultAggregatorQueue blocks, each on loan from the
	// aggregator until this consumer has delivered it.
	Buffer int
	// EventOverhead is the accounted per-event filtering cost
	// (default 200ns).
	EventOverhead time.Duration
	// Context aborts the consumer when canceled (Close remains the
	// graceful path). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors the consumer into the unified
	// registry under "fsmon.consumer": end-to-end latency from the
	// collector's capture stamp, delivery lag against event record time,
	// and per-partition cursor-vs-head distance — the operational signals
	// the paper's lag experiment (Fig. 9) measures externally. Nil (the
	// default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

// RecoverySource serves historic events after a sequence number.
type RecoverySource interface {
	Since(seq uint64, max int) ([]events.Event, error)
}

// VectorRecoverySource additionally serves partition-aware recovery:
// events not covered by a per-partition cursor vector. The Aggregator and
// RecoveryClient both implement it.
type VectorRecoverySource interface {
	RecoverySource
	SinceVector(cursors []uint64, max int) ([]events.Event, error)
}

// ConsumerStats is a snapshot of a consumer's counters.
type ConsumerStats struct {
	Received  uint64 // events seen on the wire
	Delivered uint64 // events passing the filter
	Recovered uint64 // events replayed from the store
	// LastSeq is the highest sequence observed in any partition;
	// LastSeqVector is the per-partition view (len = StorePartitions).
	LastSeq       uint64
	LastSeqVector []uint64
	BusyTime      time.Duration
	Utilization   float64
	// Pipeline is the per-stage view (subscribe → filter-deliver).
	Pipeline []pipeline.Stats
}

// Consumer subscribes to the aggregator, filters client-side, and delivers
// event batches to the application as a subscribe → filter-deliver
// pipeline. It checkpoints one cursor per store partition: partitioned
// aggregators interleave sequence lanes (partition = Seq % P), so a single
// high-water mark would wrongly drop a slower partition's events.
type Consumer struct {
	opts     ConsumerOptions
	sub      *msgq.Sub
	out      chan []events.Event
	throttle *pace.Throttle
	parts    int

	mu      sync.Mutex
	cursors []uint64 // per-partition high-water marks

	pipe *pipeline.Pipeline
	pool *pipeline.Pool[events.Block] // blocks the consumer decoded itself
	idx  []int                        // deliverBatch's surviving-index scratch (sink-goroutine owned)

	received  atomic.Uint64
	delivered atomic.Uint64
	recovered atomic.Uint64

	slog   *slog.Logger
	e2eUS  *telemetry.Histogram // capture stamp → delivered to application
	lagUS  *telemetry.Gauge     // now - event record time at delivery
	traces *telemetry.TraceRing // completed span chains (nil when tracing is off)
	aud    *telemetry.Audit     // delivery-conservation counters (nil = off)

	closeOnce sync.Once
}

// NewConsumer creates and starts a consumer. If a resume point
// (SinceSeq/SinceVector) is given and a recovery source is configured,
// missed events are replayed before live delivery begins.
func NewConsumer(opts ConsumerOptions) (*Consumer, error) {
	if opts.AggregatorEndpoint == "" && len(opts.AggregatorEndpoints) == 0 {
		return nil, errors.New("scalable: ConsumerOptions.AggregatorEndpoint is required")
	}
	if opts.Buffer <= 0 {
		opts.Buffer = pipeline.DefaultSubscriberBuffer
	}
	if opts.EventOverhead <= 0 {
		opts.EventOverhead = 200 * time.Nanosecond
	}
	parts := opts.StorePartitions
	if opts.SinceVector != nil {
		if parts > 0 && parts != len(opts.SinceVector) {
			return nil, errors.New("scalable: ConsumerOptions.SinceVector length disagrees with StorePartitions")
		}
		parts = len(opts.SinceVector)
	}
	if parts <= 0 {
		if p, ok := opts.Recover.(interface{ Partitions() int }); ok {
			parts = p.Partitions()
		}
	}
	if parts <= 0 {
		parts = 1
	}
	c := &Consumer{
		opts:     opts,
		out:      make(chan []events.Event, opts.Buffer),
		throttle: pace.NewThrottle(),
		parts:    parts,
		cursors:  make([]uint64, parts),
		pool:     pipeline.NewPool(0, newTargetBlock, resetBlock),
	}
	if opts.SinceVector != nil {
		copy(c.cursors, opts.SinceVector)
	} else {
		for i := range c.cursors {
			c.cursors[i] = opts.SinceSeq
		}
	}
	resume := opts.SinceSeq > 0
	for _, cur := range c.cursors {
		resume = resume || cur > 0
	}
	// Subscribe before recovering: an event is either already in the
	// store when the recovery request lands (replayed) or republished
	// after the subscription is live (received) — recovering first
	// leaves a window where an event stored after the recovery response
	// but republished before the subscription joins is lost on both
	// paths. The subscription only buffers until the pipeline starts, so
	// replayed events still precede live ones; any overlap is
	// deduplicated by sequence number in the filter-deliver stage.
	c.sub = msgq.NewSub(msgq.WithRecvBuffer(pipeline.DefaultAggregatorQueue))
	// Prefix subscription: AggTopic also matches the per-partition
	// topics "agg.events.p<N>" a partitioned aggregator publishes on.
	c.sub.Subscribe(AggTopic)
	endpoints := opts.AggregatorEndpoints
	if opts.AggregatorEndpoint != "" {
		endpoints = append([]string{opts.AggregatorEndpoint}, endpoints...)
	}
	for _, ep := range endpoints {
		if err := c.sub.Connect(ep); err != nil {
			c.sub.Close()
			return nil, err
		}
	}
	if err := c.sub.WaitReady(5 * time.Second); err != nil {
		c.sub.Close()
		return nil, err
	}
	// Replay also runs for a fresh consumer (no resume point): PUB/SUB
	// gives a late joiner no delivery guarantee, so events the aggregator
	// already republished are only reachable through the reliable store —
	// exactly its purpose (§IV-2). A replay failure is fatal only when
	// the caller asked to resume from a specific point; best-effort
	// otherwise (e.g. the store is disabled).
	if opts.Recover != nil {
		history, err := c.recoverHistory()
		if err != nil {
			if resume {
				c.sub.Close()
				return nil, err
			}
			history = nil
		}
		replay := history[:0] // filtered in place: the source handed the slice over
		fresh := 0            // events surviving cursor dedup, paced in one spend
		for _, e := range history {
			if e.Seq != 0 {
				p := e.Seq % uint64(c.parts)
				if e.Seq <= c.cursors[p] {
					continue // already seen (scalar replay against a partitioned store)
				}
				c.cursors[p] = e.Seq
			}
			fresh++
			if opts.Filter.Match(e) {
				replay = append(replay, e)
			}
		}
		c.throttle.Spend(time.Duration(fresh) * opts.EventOverhead)
		if len(replay) > 0 {
			c.out <- replay
			c.recovered.Add(uint64(len(replay)))
			c.delivered.Add(uint64(len(replay)))
		}
	}

	c.slog = telemetry.ComponentLogger(opts.Logger, "consumer")
	c.initTelemetry(opts.Telemetry)
	c.pipe = pipeline.New(opts.Context)
	intake := pipeline.Source(c.pipe, "subscribe", pipeline.DefaultBatchDepth, c.intakeLoop)
	pipeline.Sink(c.pipe, "filter-deliver", intake, c.deliverBatch)
	c.registerTelemetry(opts.Telemetry)
	return c, nil
}

// initTelemetry creates the end-to-end latency histogram and delivery-lag
// gauge recorded at deliverBatch. It must run before the pipeline is
// built: the sink goroutine reads these fields without synchronization.
// No-op when reg is nil.
func (c *Consumer) initTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	const prefix = "fsmon.consumer"
	c.e2eUS = reg.Histogram(prefix+".e2e_us", nil)
	c.lagUS = reg.Gauge(prefix + ".lag_us")
	c.traces = reg.Traces()
	c.aud = reg.Audit()
}

// registerTelemetry mirrors the consumer into reg under "fsmon.consumer":
// GaugeFunc mirrors of the existing counters, and — when the recovery
// source exposes its per-partition head — cursor-vs-head distance gauges
// ("how many events behind is this consumer in partition i"). Runs after
// the pipeline is built. No-op when reg is nil.
func (c *Consumer) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	const prefix = "fsmon.consumer"
	reg.GaugeFunc(prefix+".received", func() float64 { return float64(c.received.Load()) })
	reg.GaugeFunc(prefix+".delivered", func() float64 { return float64(c.delivered.Load()) })
	reg.GaugeFunc(prefix+".recovered", func() float64 { return float64(c.recovered.Load()) })
	reg.GaugeFunc(prefix+".last_seq", func() float64 { return float64(c.LastSeq()) })
	c.pipe.RegisterTelemetry(reg, prefix+".pipeline")
	msgq.RegisterSubTelemetry(reg, prefix+".sub", c.sub)
	head, ok := c.opts.Recover.(interface{ LastSeqVector() []uint64 })
	if !ok {
		return
	}
	for i := 0; i < c.parts; i++ {
		i := i
		reg.GaugeFunc(fmt.Sprintf("%s.cursor_lag.p%d", prefix, i), func() float64 {
			hv := head.LastSeqVector()
			if i >= len(hv) {
				return 0
			}
			c.mu.Lock()
			cur := c.cursors[i]
			c.mu.Unlock()
			if hv[i] <= cur {
				return 0
			}
			// Seqs within a partition advance by the stride (= partition
			// count), so the raw seq gap over-counts by that factor.
			return float64((hv[i] - cur) / uint64(c.parts))
		})
	}
}

// recoverHistory replays missed events, preferring the partition-aware
// query when the source supports it. The scalar fallback asks from the
// lowest cursor; the replay loop's per-partition dedup discards whatever
// the faster partitions already saw.
func (c *Consumer) recoverHistory() ([]events.Event, error) {
	if vs, ok := c.opts.Recover.(VectorRecoverySource); ok && c.parts > 1 {
		return vs.SinceVector(append([]uint64(nil), c.cursors...), 0)
	}
	low := c.cursors[0]
	for _, cur := range c.cursors[1:] {
		if cur < low {
			low = cur
		}
	}
	return c.opts.Recover.Since(low, 0)
}

// conBatch is one batch in flight to the application as an event block:
// either m.Block itself — borrowed by pointer from an in-process aggregator,
// frozen, and given back by m.Done — or a pooled block the consumer decoded
// m.Payload into.
type conBatch struct {
	m   msgq.Message
	blk *events.Block
}

// owned reports whether the consumer decoded the block itself.
func (cb conBatch) owned() bool { return cb.m.Block == nil }

// intakeLoop is the subscribe source stage: adopt the shared block when
// the aggregator handed one over in process (decode-never), otherwise
// zero-copy-decode the wire payload into a pooled block.
func (c *Consumer) intakeLoop(ctx context.Context, emit func(conBatch) bool) error {
	for {
		m, ok := c.sub.Recv(ctx)
		if !ok {
			return nil
		}
		cb := conBatch{m: m, blk: m.Block}
		if cb.owned() {
			cb.blk = c.pool.Get()
			if err := events.DecodeBlockInto(cb.blk, m.Payload); err != nil {
				c.slog.Warn("dropping undecodable batch", "topic", m.Topic, "bytes", len(m.Payload), "err", err)
				c.recycle(cb)
				continue
			}
		}
		if !emit(cb) {
			return nil
		}
	}
}

// deliverBatch is the filter-deliver sink stage: deduplicate the
// recovery/live overlap window against the owning partition's cursor —
// touching only the block's seq column, no event materialization under the
// lock — then materialize and filter the survivors, and hand them to the
// application.
func (c *Consumer) deliverBatch(ctx context.Context, cb conBatch) {
	blk := cb.blk
	n := blk.Len()
	keep := c.idx[:0]
	c.received.Add(uint64(n))
	c.mu.Lock()
	for i := 0; i < n; i++ {
		if seq := blk.Seq(i); seq != 0 {
			p := seq % uint64(c.parts)
			if seq <= c.cursors[p] {
				continue
			}
			c.cursors[p] = seq
			// The delivery boundary of the conservation audit, counted at
			// the dedup keep point — before subscription filtering — so the
			// republished↔delivered balance holds for any filter. The lane
			// detector flags forward jumps: seqs the store assigned but
			// this consumer never saw.
			c.aud.Delivered(int(p), 1)
			c.aud.DeliverSeq(int(p), seq, uint64(c.parts))
		}
		keep = append(keep, i)
	}
	c.mu.Unlock()
	c.idx = keep
	if len(keep) == 0 {
		c.recycle(cb)
		return
	}
	// Pace, materialize and filter outside the cursor lock: Spend sleeps, and
	// Stats/LastSeq readers should not wait on pacing. The accounted filter
	// cost of every dedup survivor is spent once for the batch, like the
	// aggregator's and the resolver's. The survivors' strings are one copy
	// made here, by the tier that hands them to the application: nobody
	// upstream interns on a consumer's account, and the block — borrowed and
	// frozen, or decoded over a payload that goes back to its connection at
	// Done — is only read.
	c.throttle.Spend(time.Duration(len(keep)) * c.opts.EventOverhead)
	pass := blk.AppendPickedTo(make([]events.Event, 0, len(keep)), keep)
	kept := 0 // filter in place; an event moves only once one before it was dropped
	for i := range pass {
		if c.opts.Filter.Match(pass[i]) {
			if kept != i {
				pass[kept] = pass[i]
			}
			kept++
		}
	}
	pass = pass[:kept]
	if len(pass) == 0 {
		c.recycle(cb)
		return
	}
	select {
	case c.out <- pass:
		c.delivered.Add(uint64(len(pass)))
		c.observeDelivery(pass, blk.Stamp())
		c.completeTrace(blk.Trace())
	case <-ctx.Done():
	}
	c.recycle(cb)
}

// recycle ends the consumer's use of a batch: a block it decoded itself
// returns to the pool, a borrowed one goes back to the aggregator that lent
// it. The delivered events hold no reference to either — their strings are
// a copy (AppendPickedTo) — which is what lets the payload a decoded block
// aliased return to its connection here.
func (c *Consumer) recycle(cb conBatch) {
	if cb.owned() {
		c.pool.Put(cb.blk)
	}
	cb.m.Done()
}

// completeTrace closes a batch's span chain at the deliver hop and files
// the finished trace into the registry ring. Batches entirely consumed by
// dedup or the filter never get here: their sampled event was not
// delivered, so no deliver span exists and the chain is dropped. tr may
// belong to a shared frozen block, so the deliver span is appended to the
// telemetry copy, never to tr itself.
func (c *Consumer) completeTrace(tr *events.BatchTrace) {
	if tr == nil || c.traces == nil {
		return
	}
	t := telemetry.Trace{ID: tr.ID, Spans: make([]telemetry.TraceSpan, len(tr.Spans)+1)}
	for i, sp := range tr.Spans {
		t.Spans[i] = telemetry.TraceSpan{Tier: events.TierName(sp.Tier), TS: sp.TS, Node: sp.Node}
	}
	t.Spans[len(tr.Spans)] = telemetry.TraceSpan{Tier: events.TierName(events.TierDeliver), TS: time.Now().UnixNano()}
	c.traces.Add(t)
}

// observeDelivery records the latency signals for a delivered batch:
// end-to-end microseconds from the batch's capture stamp (one observation
// per delivered event, so the histogram weighs latency by event volume),
// and the delivery lag (now - record time) of the batch's newest event —
// the Robinhood-style "how far behind the storage system is the consumer"
// gauge. Recovery replay bypasses deliverBatch, so replayed history with
// stale stamps never pollutes the histogram.
func (c *Consumer) observeDelivery(pass []events.Event, stamp int64) {
	if c.e2eUS == nil {
		return
	}
	if us := telemetry.SinceStampUS(stamp); us >= 0 {
		for range pass {
			c.e2eUS.Observe(us)
		}
	}
	last := pass[len(pass)-1]
	if !last.Time.IsZero() {
		if lag := time.Since(last.Time).Microseconds(); lag >= 0 {
			c.lagUS.Set(lag)
		}
	}
}

// C returns the application-facing batch channel.
func (c *Consumer) C() <-chan []events.Event { return c.out }

// LastSeq returns the highest sequence number observed in any partition —
// the resume point a restarted consumer passes as SinceSeq when the
// aggregator is unpartitioned.
func (c *Consumer) LastSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var last uint64
	for _, cur := range c.cursors {
		if cur > last {
			last = cur
		}
	}
	return last
}

// LastSeqVector returns the per-partition high-water marks — the precise
// resume point a restarted consumer passes as SinceVector.
func (c *Consumer) LastSeqVector() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.cursors...)
}

// Stats returns a snapshot of the consumer's counters.
func (c *Consumer) Stats() ConsumerStats {
	st := ConsumerStats{
		Received:      c.received.Load(),
		Delivered:     c.delivered.Load(),
		Recovered:     c.recovered.Load(),
		LastSeq:       c.LastSeq(),
		LastSeqVector: c.LastSeqVector(),
		BusyTime:      c.throttle.Busy(),
		Utilization:   c.throttle.Utilization(),
		Pipeline:      c.pipe.Stats(),
	}
	return st
}

// ResetAccounting restarts the utilization window.
func (c *Consumer) ResetAccounting() { c.throttle.Reset() }

// Close stops the consumer: the subscription closes (ending the intake
// source after its buffer drains), the stages drain, then the delivery
// channel closes.
func (c *Consumer) Close() {
	c.closeOnce.Do(func() {
		c.sub.Close()
		c.pipe.Drain(pipeline.DefaultDrainGrace)
		close(c.out)
	})
}
