package scalable

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	// Recover is the fault-recovery source (the Aggregator in process, a
	// RecoveryClient or RecoveryFanout over the wire); nil disables
	// recovery. NewConsumer takes the replay from it page by page and queues
	// each page for C() as a batch of its own.
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

// RecoverySource serves historic events: RecoverPages hands page, in global
// seq order and in pages of at most recoveryBatchMax rows, every stored event
// the cursors do not cover (e.Seq > cursors[e.Seq % P]; a single cursor is a
// uniform cutoff over every partition), and returns once the last page was
// taken. The block is page's only during the call; an error from page ends
// the replay. *Aggregator, *RecoveryClient and *RecoveryFanout implement it.
type RecoverySource interface {
	RecoverPages(cursors []uint64, page func(*events.Block) error) error
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

	pipe   *pipeline.Pipeline
	pool   *pipeline.Pool[events.Block] // blocks the consumer decoded itself
	idx    []int                        // take's surviving-index scratch (NewConsumer's, then the sink goroutine's)
	replay [][]events.Event             // recovered pages, filtered, awaiting C() ahead of live batches
	// What take hands batches out of, owned like idx: the rest of a slab
	// (batchSlice) and the path arena every batch's strings are cut from.
	slab  []events.Event
	arena events.PathArena

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

// NewConsumer creates and starts a consumer. If a recovery source is
// configured, missed events are replayed before live delivery begins: each
// page is deduplicated, materialized and filtered as it lands, while the
// source is still producing the next, and reaches C() as a batch of its own,
// every one ahead of the first live batch. NewConsumer returns once the last
// page is taken, so Stats().Recovered is final by then.
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
		pool:     pipeline.NewPool(newTargetBlock, resetBlock),
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
	// otherwise (e.g. the store is disabled), keeping the pages taken.
	if opts.Recover != nil {
		cursors := append([]uint64(nil), c.cursors...) // the source's own: dedup moves c.cursors
		if err := opts.Recover.RecoverPages(cursors, c.replayPage); err != nil && resume {
			c.sub.Close()
			return nil, err
		}
	}

	c.slog = telemetry.ComponentLogger(opts.Logger, "consumer")
	c.initTelemetry(opts.Telemetry)
	c.pipe = pipeline.New(opts.Context)
	intake := pipeline.Source(c.pipe, "subscribe", pipeline.DefaultBatchDepth, c.intakeLoop)
	pipeline.Sink(c.pipe, "filter-deliver", intake, c.deliverBatch)
	c.pipe.RegisterTelemetry(opts.Telemetry, "fsmon.consumer.pipeline")
	return c, nil
}

// initTelemetry mirrors the consumer into reg under "fsmon.consumer": the
// end-to-end latency histogram and delivery-lag gauge recorded at
// deliverBatch, GaugeFunc mirrors of the existing counters, the socket,
// and — when the recovery source exposes its per-partition head —
// cursor-vs-head distance gauges ("how many events behind is this
// consumer in partition i"). It must run before the pipeline is built: the
// sink goroutine reads these fields without synchronization. NewConsumer
// mirrors the pipeline once it is built. No-op when reg is nil.
func (c *Consumer) initTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	const prefix = "fsmon.consumer"
	c.e2eUS = reg.Histogram(prefix+".e2e_us", nil)
	c.lagUS = reg.Gauge(prefix + ".lag_us")
	c.traces = reg.Traces()
	c.aud = reg.Audit()
	reg.GaugeFunc(prefix+".received", func() float64 { return float64(c.received.Load()) })
	reg.GaugeFunc(prefix+".delivered", func() float64 { return float64(c.delivered.Load()) })
	reg.GaugeFunc(prefix+".recovered", func() float64 { return float64(c.recovered.Load()) })
	reg.GaugeFunc(prefix+".last_seq", func() float64 { return float64(c.LastSeq()) })
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

// replayPage takes one recovery page as it lands: the rows past the
// cursors, materialized and filtered into a batch queued for C(). Replay is
// history, not delivery: it is counted as Recovered, and neither the audit
// nor the latency signals see it.
func (c *Consumer) replayPage(blk *events.Block) error {
	if pass := c.take(blk, nil); len(pass) > 0 {
		c.replay = append(c.replay, pass)
		c.recovered.Add(uint64(len(pass)))
		c.delivered.Add(uint64(len(pass)))
	}
	return nil
}

// conBatch is one batch in flight to the application as an event block:
// either m.Block itself — borrowed by pointer from an in-process aggregator,
// frozen, and given back by m.Done — or a pooled block the consumer decoded
// m.Payload into.
type conBatch struct {
	m      msgq.Message
	blk    *events.Block
	healed bool // a copy of a recovery page (heal), not a live batch
}

// owned reports whether the consumer decoded the block itself.
func (cb conBatch) owned() bool { return cb.m.Block == nil }

// intakeLoop is the subscribe source stage. It first hands the recovered
// pages to C() itself, in order — it has emitted no live batch yet, so none
// can overtake them; the subscription buffers live batches meanwhile. Then it
// adopts the shared block when the aggregator handed one over in process
// (decode-never), otherwise zero-copy-decodes the wire payload into a pooled
// block. A lost link is healed in line (heal).
func (c *Consumer) intakeLoop(ctx context.Context, emit func(conBatch) bool) error {
	for _, page := range c.replay {
		select {
		case c.out <- page:
		case <-ctx.Done():
			return nil
		}
	}
	c.replay = nil
	for {
		m, ok := c.sub.Recv(ctx)
		if !ok {
			return nil
		}
		if m.LinkLost() {
			if !c.heal(emit) {
				return nil
			}
			continue
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
		c.received.Add(uint64(cb.blk.Len()))
		if !emit(cb) {
			return nil
		}
	}
}

// heal resumes from the consumer's cursors on a link report (lost, or back):
// once the links are ready, or StallBound passed, Recover's pages are copied
// into pooled blocks and sent down the pipeline behind the batches in it, so
// take delivers each event once, in order. It reports false once the
// pipeline stops.
func (c *Consumer) heal(emit func(conBatch) bool) bool {
	if c.opts.Recover == nil {
		c.slog.Error("aggregator link lost without a recovery source: events published meanwhile are lost")
		return true
	}
	if err := c.sub.WaitReady(pipeline.StallBound); err != nil {
		c.slog.Warn("aggregator link not back: replaying what the store holds now, again once it is", "err", err)
	}
	running := true
	err := c.opts.Recover.RecoverPages(c.LastSeqVector(), func(page *events.Block) error {
		blk := c.pool.Get()
		blk.AppendBlock(page)
		if running = emit(conBatch{blk: blk, healed: true}); !running {
			c.pool.Put(blk)
			return context.Canceled
		}
		return nil
	})
	if err != nil && running {
		c.slog.Error("replay after a lost aggregator link failed: events published meanwhile are lost", "err", err)
	}
	return running
}

// deliverBatch is the filter-deliver sink stage: deduplicate the
// recovery/live overlap window against the owning partition's cursors, then
// materialize and filter the survivors, and hand them to the application.
func (c *Consumer) deliverBatch(ctx context.Context, cb conBatch) {
	blk := cb.blk
	pass := c.take(blk, c.aud)
	if len(pass) == 0 {
		c.recycle(cb)
		return
	}
	// Counted before the hand-off, so whoever holds the batch sees it counted.
	n := uint64(len(pass))
	c.delivered.Add(n)
	select {
	case c.out <- pass:
		if cb.healed {
			c.recovered.Add(n)
		}
		c.observeDelivery(pass, blk.Stamp()) // a healed copy has no stamp or trace
		c.completeTrace(blk.Trace())
	case <-ctx.Done():
		c.delivered.Add(^(n - 1)) // not handed over after all
	}
	c.recycle(cb)
}

// take deduplicates blk against the owning partition's cursors — touching
// only the block's seq column, no event materialization under the lock —
// then materializes and filters the survivors. aud, when non-nil, counts
// each survivor at the conservation audit's delivery boundary.
func (c *Consumer) take(blk *events.Block, aud *telemetry.Audit) []events.Event {
	keep := c.idx[:0]
	c.mu.Lock()
	for i, n := 0, blk.Len(); i < n; i++ {
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
			aud.Delivered(int(p), 1)
			aud.DeliverSeq(int(p), seq, uint64(c.parts))
		}
		keep = append(keep, i)
	}
	c.mu.Unlock()
	c.idx = keep
	if len(keep) == 0 {
		return nil
	}
	// Pace, materialize and filter outside the cursor lock: Spend sleeps, and
	// Stats/LastSeq readers should not wait on pacing. The accounted filter
	// cost of every dedup survivor is spent once for the batch, like the
	// aggregator's and the resolver's. The survivors' strings are one copy
	// made here, into the path arena, by the tier that hands them to the
	// application: nobody upstream interns on a consumer's account, and the
	// block — borrowed and frozen, decoded over a payload that goes back to
	// its connection at Done, or a recovery page — is only read.
	c.throttle.Spend(time.Duration(len(keep)) * c.opts.EventOverhead)
	pass := blk.AppendPickedArena(c.batchSlice(len(keep)), keep, &c.arena, pathArenaBytes)
	if c.opts.Filter.All() {
		return pass
	}
	kept := 0 // filter in place; an event moves only once one before it was dropped
	for i := range pass {
		if c.opts.Filter.Match(pass[i]) {
			if kept != i {
				pass[kept] = pass[i]
			}
			kept++
		}
	}
	return pass[:kept]
}

// The Go heap allocates an object larger than maxSmallBytes in whole
// heapPage pages. eventBytes is one delivered Event.
const (
	heapPage      = 8 << 10
	maxSmallBytes = 32 << 10
	eventBytes    = int(unsafe.Sizeof(events.Event{}))
	// pathArenaBytes is the path arena take cuts each batch's strings from,
	// a new one whenever a batch's do not fit in what is left. The tail an
	// arena leaves unused shrinks as it grows beside a batch's strings: in
	// the event-journey benchmark 64 KiB cost crash_recovery 1.3 B/event
	// more than 256 KiB, 128 KiB cost churn_cold_4part ≈ 3 more, and 512 KiB
	// saved nothing.
	pathArenaBytes = 256 << 10
)

// batchSlice returns an empty slice with room for the n events of one
// batch. A slice of n that would be a large object leaving part of its last
// page empty — a 512-event batch takes 53 248 B, 7 pages — comes out of a
// slab of whole pages for two such batches (13 pages are exactly 1 024
// events), as a window capped at n: an append to the batch reallocates
// instead of reaching into the next one. Any other slice is one allocation
// of its own, which wastes nothing a slab would save.
func (c *Consumer) batchSlice(n int) []events.Event {
	size := n * eventBytes
	if size <= maxSmallBytes || size%heapPage == 0 {
		return make([]events.Event, 0, n)
	}
	if cap(c.slab)-len(c.slab) < n {
		pages := (2*size + heapPage - 1) / heapPage
		c.slab = make([]events.Event, 0, pages*heapPage/eventBytes)
	}
	off := len(c.slab)
	c.slab = c.slab[:off+n]
	return c.slab[off : off : off+n]
}

// recycle ends the consumer's use of a batch: a block it decoded itself
// returns to the pool, a borrowed one goes back to the aggregator that lent
// it. The delivered events hold no reference to either — their strings are
// a copy in the consumer's path arena (AppendPickedArena) — which is what
// lets the payload a decoded block aliased return to its connection here.
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
// end-to-end microseconds from the batch's capture stamp (observed once per
// delivered event, in one update, so the histogram weighs latency by event
// volume),
// and the delivery lag (now - record time) of the batch's newest event —
// the Robinhood-style "how far behind the storage system is the consumer"
// gauge. Recovered pages skip it, so replayed history with stale stamps
// never pollutes the histogram.
func (c *Consumer) observeDelivery(pass []events.Event, stamp int64) {
	if c.e2eUS == nil {
		return
	}
	if us := telemetry.SinceStampUS(stamp); us >= 0 {
		c.e2eUS.ObserveN(us, len(pass))
	}
	last := pass[len(pass)-1]
	if !last.Time.IsZero() {
		if lag := time.Since(last.Time).Microseconds(); lag >= 0 {
			c.lagUS.Set(lag)
		}
	}
}

// C returns the application-facing batch channel. A replay arrives first,
// as page-sized batches of at most recoveryBatchMax events, then the live
// batches.
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
