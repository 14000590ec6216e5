package scalable

import (
	"context"
	"encoding/binary"
	"errors"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// newPoolBlock sizes the blocks collectors fill for a full Changelog read
// with a typical path footprint.
func newPoolBlock() *events.Block {
	return events.NewBlock(pipeline.DefaultChangelogBatch, 32<<10)
}

// newTargetBlock is what the aggregator and consumer pools hand out: decode,
// clone and view targets. They start bare because everything they hold
// arrives with the batch — a decode aliases the payload as its arena and
// sizes its columns from the header, a clone shares its source's columns
// and copies only seqs, a view adopts its source's arena — and a block
// published to a subscriber never comes back to be reused.
func newTargetBlock() *events.Block { return events.NewBlock(0, 0) }

// AggregatorOptions configures the aggregator service (which the paper
// deploys on the MGS).
type AggregatorOptions struct {
	// CollectorEndpoints are the publisher endpoints of every collector.
	CollectorEndpoints []string
	// Endpoint is where the aggregator's own publisher binds (default
	// "inproc://aggregator").
	Endpoint string
	// Engine is the reliable event store engine; it takes precedence
	// over Store and StorePartitions. If both Engine and Store are nil
	// (and the store is not disabled) the aggregator creates an
	// unbounded in-memory sharded engine with StorePartitions shards
	// (the paper uses MySQL here).
	Engine eventstore.Engine
	// Store is the legacy single-store knob (equivalent to Engine with
	// one partition); retained so existing callers keep working.
	Store *eventstore.Store
	// StorePartitions is the partition count for the default engine and
	// for the aggregation pipeline's store lanes (default
	// pipeline.DefaultStorePartitions = 1, which reproduces the paper's
	// single serial store thread). Ignored when Store is set (a plain
	// Store is one partition).
	StorePartitions int
	// EventOverhead is the accounted aggregation cost per event
	// (default 500ns), spent on the owning partition's lane.
	EventOverhead time.Duration
	// DisableStore skips the reliable event store entirely (sequence
	// numbers still flow, from per-partition counters). Consumers cannot
	// fault-recover; exists to quantify the fault-tolerance cost
	// (DESIGN.md ablations).
	DisableStore bool
	// QueueSize is the subscription buffer capacity in messages (default
	// pipeline.DefaultAggregatorQueue).
	QueueSize int
	// Context aborts the aggregator when canceled (Close remains the
	// graceful path). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors the aggregator into the unified
	// registry under "fsmon.aggregator" (and the engine under
	// "fsmon.store.p<i>"). Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	if o.Endpoint == "" {
		o.Endpoint = "inproc://aggregator"
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
type Aggregator struct {
	opts      AggregatorOptions
	sub       *msgq.Sub
	pub       *msgq.Pub
	engine    eventstore.PartitionedEngine // nil when the store is disabled
	parts     int
	ownStore  bool
	throttles []*pace.Throttle // one per store lane
	counters  []uint64         // DisableStore seq counters, one per lane (lane-affine, unsynchronized)

	pipe *pipeline.Pipeline
	pool *pipeline.Pool[events.Block] // blocks cycling through decode → store → republish

	received  atomic.Uint64
	published atomic.Uint64
	stored    atomic.Uint64

	slog             *slog.Logger
	storeUS          *telemetry.Histogram // per-batch store-lane wall time
	captureToStoreUS *telemetry.Histogram // capture stamp → store append
	republishUS      *telemetry.Histogram // capture stamp → republished
	aud              *telemetry.Audit     // delivery-conservation counters (nil = off)

	closeOnce sync.Once
}

// NewAggregator creates and starts the aggregator.
func NewAggregator(opts AggregatorOptions) (*Aggregator, error) {
	opts = opts.withDefaults()
	if len(opts.CollectorEndpoints) == 0 {
		return nil, errors.New("scalable: AggregatorOptions.CollectorEndpoints is required")
	}
	var engine eventstore.PartitionedEngine
	ownStore := false
	switch {
	case opts.DisableStore:
	case opts.Engine != nil:
		engine = eventstore.AsPartitioned(opts.Engine)
	case opts.Store != nil:
		engine = opts.Store
	default:
		sh, err := eventstore.NewSharded(opts.StorePartitions, eventstore.Options{})
		if err != nil {
			return nil, err
		}
		engine = sh
		ownStore = true
	}
	parts := opts.StorePartitions
	if engine != nil {
		parts = engine.Partitions()
	}
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	if err := pub.Bind(opts.Endpoint); err != nil {
		if ownStore {
			engine.Close()
		}
		return nil, err
	}
	sub := msgq.NewSub(msgq.WithRecvBuffer(opts.QueueSize))
	sub.Subscribe(TopicPrefix)
	for _, ep := range opts.CollectorEndpoints {
		if err := sub.Connect(ep); err != nil {
			pub.Close()
			sub.Close()
			if ownStore {
				engine.Close()
			}
			return nil, err
		}
	}
	a := &Aggregator{
		opts:      opts,
		sub:       sub,
		pub:       pub,
		engine:    engine,
		parts:     parts,
		ownStore:  ownStore,
		throttles: make([]*pace.Throttle, parts),
		counters:  make([]uint64, parts),
		pool:      pipeline.NewPool(0, newTargetBlock, (*events.Block).Reset),
	}
	for i := range a.throttles {
		a.throttles[i] = pace.NewThrottle()
	}
	// At least one collector link must be live before the aggregator
	// reports ready; collectors that bind later attach automatically (and
	// hold their Changelogs until then).
	if err := sub.WaitAnyReady(5 * time.Second); err != nil {
		pub.Close()
		sub.Close()
		if ownStore {
			engine.Close()
		}
		return nil, err
	}

	a.slog = telemetry.ComponentLogger(opts.Logger, "aggregator")
	a.initTelemetry(opts.Telemetry)

	a.pipe = pipeline.New(opts.Context)
	intake := pipeline.Source(a.pipe, "subscribe", pipeline.DefaultBatchDepth, a.intakeLoop)
	parted := pipeline.Expand(a.pipe, "partition", pipeline.DefaultBatchDepth, intake, a.partitionBatch)
	stamped := pipeline.ShardN(a.pipe, "store", pipeline.DefaultBatchDepth, parts, parted,
		func(pb partBatch) int { return pb.part }, a.storeLane())
	pipeline.Sink(a.pipe, "republish", stamped, a.republishBatch)
	a.registerTelemetry(opts.Telemetry)
	a.slog.Debug("aggregator started", "endpoint", a.pub.Addr(), "partitions", parts)
	return a, nil
}

// initTelemetry creates the latency histograms on the store/republish hot
// path (both local lane time and cumulative time since the collector's
// capture stamp). It must run before the pipeline is built: lane
// goroutines read these fields without synchronization. No-op when reg is
// nil.
func (a *Aggregator) initTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	const prefix = "fsmon.aggregator"
	a.storeUS = reg.Histogram(prefix+".store_us", nil)
	a.captureToStoreUS = reg.Histogram(prefix+".capture_to_store_us", nil)
	a.republishUS = reg.Histogram(prefix+".capture_to_republish_us", nil)
	// The classic aggregator is the conservation audit's anchor: it knows
	// the partition count, so it attaches the auditor and hands it to the
	// engine's append path.
	a.aud = reg.EnableAudit(a.parts)
	switch eng := a.engine.(type) {
	case *eventstore.Store:
		eng.SetAudit(a.aud, 0)
	case *eventstore.Sharded:
		eng.SetAudit(a.aud)
	}
}

// registerTelemetry mirrors the aggregator into reg: the engine's
// per-partition surface under "fsmon.store" and GaugeFunc mirrors of the
// existing counters. Runs after the pipeline is built so the mirrors can
// close over live stages. No-op when reg is nil.
func (a *Aggregator) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	const prefix = "fsmon.aggregator"
	reg.GaugeFunc(prefix+".received", func() float64 { return float64(a.received.Load()) })
	reg.GaugeFunc(prefix+".published", func() float64 { return float64(a.published.Load()) })
	reg.GaugeFunc(prefix+".stored", func() float64 { return float64(a.stored.Load()) })
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
	if a.engine != nil {
		eventstore.RegisterEngineTelemetry(reg, "fsmon.store", a.engine)
	}
}

// Endpoint returns the aggregator's publisher endpoint.
func (a *Aggregator) Endpoint() string { return a.pub.Addr() }

// Partitions returns the store-lane / engine partition count.
func (a *Aggregator) Partitions() int { return a.parts }

// rawBatch is an unrouted collector message: the wire payload, the shared
// block pointer when the message arrived on the in-process fast path (nil
// over TCP), and the MDT index parsed from its topic (-1 when the topic
// carries none).
type rawBatch struct {
	payload []byte
	blk     *events.Block
	mdt     int
}

// partBatch is a batch routed to one partition. Three shapes flow through:
// still encoded (blk nil — the owning lane decodes the payload into a
// pooled block), a shared frozen block (blk set, owned false — the
// in-process pointer fast path; the lane clones it before assigning seqs),
// or an owned view block (owned true — the path-hash split). Stamp and
// trace ride inside the block or the payload's wire header.
type partBatch struct {
	part    int
	payload []byte
	blk     *events.Block
	owned   bool
}

// repBatch is a sequenced batch ready to republish: the block is always
// exclusively owned by the pipeline at this point (decoded, cloned, or a
// split view), so the republish stage may recycle it when no subscriber
// retains it. stamp is the batch's capture mark, carried so the stage can
// record cumulative latency without touching the block after publish.
type repBatch struct {
	part  int
	blk   *events.Block
	n     int
	stamp int64
}

// intakeLoop is the subscribe source stage ("When an event arrives to the
// aggregator it is placed in a processing queue"). It does not decode:
// decoding happens on the owning partition's lane so the work parallelizes
// — and when the collector shares its block pointer in process, decoding
// never happens at all.
func (a *Aggregator) intakeLoop(ctx context.Context, emit func(rawBatch) bool) error {
	for {
		m, ok := a.sub.Recv(ctx)
		if !ok {
			return nil
		}
		if !emit(rawBatch{payload: m.Payload, blk: m.Block, mdt: mdtFromTopic(m.Topic)}) {
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
// function is the collector's MDT index (all of one MDT's events share a
// partition, keeping their Changelog order), falling back to a per-path
// hash split for batches whose origin is unknown. The MDT fast path
// forwards the payload undecoded.
func (a *Aggregator) partitionBatch(_ context.Context, rb rawBatch, emit func(partBatch) bool) {
	if a.parts == 1 {
		emit(partBatch{part: 0, payload: rb.payload, blk: rb.blk})
		return
	}
	if rb.mdt >= 0 {
		emit(partBatch{part: rb.mdt % a.parts, payload: rb.payload, blk: rb.blk})
		return
	}
	// Path-hash split: decode the payload as a zero-copy block (or adopt
	// the shared block as-is) and build one pooled view block per non-empty
	// partition over the same arena — no event structs, no string copies.
	src, owned := rb.blk, false
	if src == nil {
		src = a.pool.Get()
		owned = true
		if err := events.DecodeBlockInto(src, rb.payload); err != nil {
			a.pool.Put(src)
			a.slog.Warn("dropping undecodable batch", "bytes", len(rb.payload), "err", err)
			return
		}
	}
	views := make([]*events.Block, a.parts)
	// The trace follows its sampled event, not the batch: only the view
	// that carries the event whose key is the trace ID keeps the span
	// chain across the split.
	trace := src.Trace()
	tracePart := -1
	n := src.Len()
	for i := 0; i < n; i++ {
		p := eventstore.PartitionForPathBytes(src.PathBytes(i), a.parts)
		v := views[p]
		if v == nil {
			v = a.pool.Get()
			v.SetStamp(src.Stamp())
			views[p] = v
		}
		v.AppendFrom(src, i)
		if trace != nil && tracePart < 0 && src.EventKey(i) == trace.ID {
			tracePart = p
		}
	}
	if trace != nil && tracePart >= 0 {
		// src may be a shared frozen block, so the partition span goes on
		// a copy of its trace, attached to the owning view.
		tr := &events.BatchTrace{ID: trace.ID, Spans: append([]events.Span(nil), trace.Spans...)}
		tr.Append(events.TierPartition, time.Now().UnixNano())
		views[tracePart].SetTrace(tr)
	}
	for p, v := range views {
		if v == nil {
			continue
		}
		if !emit(partBatch{part: p, blk: v, owned: true}) {
			return
		}
	}
	if owned {
		// The views reference the payload arena directly, not src's
		// columns, so the scratch block recycles immediately.
		a.pool.Put(src)
	}
}

// storeLane returns the per-partition store stage function: take exclusive
// ownership of the batch's block (zero-copy decode of a wire payload, or a
// column clone of a shared frozen block), spend the aggregation overhead on
// this lane's throttle, and persist the block into the partition's shard —
// sequence numbers are assigned directly into the seq column, so the
// republish image is a clone+patch of the received bytes, never a
// re-marshal. ShardN guarantees one lane owns each partition, so the
// DisableStore counters need no locking.
func (a *Aggregator) storeLane() func(context.Context, partBatch) (repBatch, bool) {
	return func(_ context.Context, pb partBatch) (repBatch, bool) {
		var start time.Time
		if a.storeUS != nil {
			start = time.Now()
		}
		blk := pb.blk
		switch {
		case blk == nil:
			blk = a.pool.Get()
			if err := events.DecodeBlockInto(blk, pb.payload); err != nil {
				a.pool.Put(blk)
				a.slog.Warn("dropping undecodable batch", "partition", pb.part, "bytes", len(pb.payload), "err", err)
				return repBatch{}, false
			}
			if tr := blk.Trace(); tr != nil {
				// The wire fast path forwards payloads undecoded, so the
				// partition hop is only observable here, at lane entry.
				tr.Append(events.TierPartition, time.Now().UnixNano())
				blk.MarkTraceDirty()
			}
		case !pb.owned:
			// In-process pointer fast path: the received block is frozen,
			// so sequence assignment works on a clone — seqs copied, every
			// other column, the arena and the wire image shared.
			c := a.pool.Get()
			c.CloneFrom(blk)
			blk = c
			if tr := blk.Trace(); tr != nil {
				tr.Append(events.TierPartition, time.Now().UnixNano())
				blk.MarkTraceDirty()
			}
		}
		n := blk.Len()
		if n == 0 {
			a.pool.Put(blk)
			return repBatch{}, false
		}
		a.received.Add(uint64(n))
		a.throttles[pb.part].Spend(time.Duration(n) * a.opts.EventOverhead)
		if a.engine != nil {
			if _, err := a.engine.AppendBlockPartition(pb.part, blk); err != nil {
				// Store rejection (e.g. capacity): drop the batch but
				// keep the service alive for subsequent ones.
				a.slog.Error("store append failed, dropping batch", "partition", pb.part, "events", n, "err", err)
				a.pool.Put(blk)
				return repBatch{}, false
			}
		} else {
			// Counter-only stamping mirrors the sharded lanes: partition
			// p assigns p+P, p+2P, ... (1,2,3,... when P == 1). Intern so
			// consumers materialize delivered events from one string copy.
			blk.Intern()
			stride := uint64(a.parts)
			for i := 0; i < n; i++ {
				a.counters[pb.part]++
				blk.SetSeq(i, uint64(pb.part)+a.counters[pb.part]*stride)
			}
			// No engine to report the audit's stored boundary, so the
			// counter lane reports it directly.
			a.aud.Stored(pb.part, n)
			a.aud.StoreSeq(pb.part, uint64(pb.part)+(a.counters[pb.part]-uint64(n)+1)*stride, n, stride)
		}
		a.stored.Add(uint64(n))
		if a.storeUS != nil {
			a.storeUS.ObserveSince(start)
			if us := telemetry.SinceStampUS(blk.Stamp()); us >= 0 {
				a.captureToStoreUS.Observe(us)
			}
		}
		if tr := blk.Trace(); tr != nil {
			tr.Append(events.TierStore, time.Now().UnixNano())
			blk.MarkTraceDirty()
		}
		return repBatch{part: pb.part, blk: blk, n: n, stamp: blk.Stamp()}, true
	}
}

// republishBatch is the republish sink stage. Consumers may legitimately
// be absent (they recover from the store), so no delivery is awaited.
// With one partition the batch goes out on the classic AggTopic — byte
// identical to the unpartitioned aggregator — otherwise on the
// partition's own topic (a prefix of which is still AggTopic, so plain
// subscribers see everything).
func (a *Aggregator) republishBatch(ctx context.Context, rb repBatch) {
	topic := AggTopic
	if a.parts > 1 {
		topic = msgq.PartitionTopic(AggTopic, rb.part)
	}
	if tr := rb.blk.Trace(); tr != nil {
		// The republish span is stamped before encoding so it rides inside
		// the payload (traced batches re-encode; untraced ones go out as a
		// clone+patch of the received bytes).
		tr.Append(events.TierRepublish, time.Now().UnixNano())
		rb.blk.MarkTraceDirty()
	}
	_, shared := a.pub.PublishBlockCtx(ctx, topic, rb.blk)
	a.published.Add(uint64(rb.n))
	a.aud.Republished(rb.part, rb.n)
	if a.republishUS != nil {
		if us := telemetry.SinceStampUS(rb.stamp); us >= 0 {
			a.republishUS.Observe(us)
		}
	}
	if !shared {
		a.pool.Put(rb.blk)
	}
}

// Since serves the consumer fault-recovery API: events with sequence
// numbers greater than seq, from the reliable store, in global order.
func (a *Aggregator) Since(seq uint64, max int) ([]events.Event, error) {
	if a.engine == nil {
		return nil, errors.New("scalable: aggregator store disabled")
	}
	return a.engine.Since(seq, max)
}

// SinceVector serves partition-aware fault recovery: events not covered by
// the per-partition cursor vector (len must equal Partitions()).
func (a *Aggregator) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	if a.engine == nil {
		return nil, errors.New("scalable: aggregator store disabled")
	}
	return a.engine.SinceVector(cursors, max)
}

// Ack flags events up to seq as reported; Purge removes flagged events.
func (a *Aggregator) Ack(seq uint64) error {
	if a.engine == nil {
		return nil
	}
	return a.engine.MarkReported(seq)
}

// AckVector flags, per partition i, events up to cursors[i] as reported —
// the partition-aware Ack, safe when partitions drain at different rates.
func (a *Aggregator) AckVector(cursors []uint64) error {
	if a.engine == nil {
		return nil
	}
	return a.engine.MarkReportedVector(cursors)
}

// LastSeqVector returns the highest stored seq per partition (nil when the
// store is disabled).
func (a *Aggregator) LastSeqVector() []uint64 {
	if a.engine == nil {
		return nil
	}
	return a.engine.LastSeqVector()
}

// Purge removes reported events from the store ("they are flagged as
// having been reported and can be removed from the data store when next
// data purge cycle is initiated").
func (a *Aggregator) Purge() (int, error) {
	if a.engine == nil {
		return 0, nil
	}
	return a.engine.Purge()
}

// Stats returns a snapshot of the aggregator's counters.
func (a *Aggregator) Stats() AggregatorStats {
	st := AggregatorStats{
		Received:   a.received.Load(),
		Published:  a.published.Load(),
		Stored:     a.stored.Load(),
		Partitions: a.parts,
		Pipeline:   a.pipe.Stats(),
	}
	for _, t := range a.throttles {
		st.BusyTime += t.Busy()
		st.Utilization += t.Utilization()
	}
	if a.engine != nil {
		st.Store = a.engine.Stats()
	}
	return st
}

// ResetAccounting restarts the utilization window on every lane.
func (a *Aggregator) ResetAccounting() {
	for _, t := range a.throttles {
		t.Reset()
	}
}

// Close stops the aggregator: the subscription closes (ending the intake
// source after its buffer drains), the stages drain in order, then the
// publisher and any owned store shut down.
func (a *Aggregator) Close() {
	a.closeOnce.Do(func() {
		a.sub.Close()
		a.pipe.Drain(pipeline.DefaultDrainGrace)
		a.pub.Close()
		if a.ownStore {
			a.engine.Close()
		}
	})
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
