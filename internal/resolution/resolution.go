// Package resolution implements FSMonitor's middle layer (§III-A2): "a
// queue to receive and manage events until they are processed. As events
// are received from a DSI plugin they are immediately placed in the
// processing queue. The events are then processed to resolve and
// dereference paths such that events can be transformed into various
// representations." It also provides the layer's performance
// optimizations: batching and caching.
//
// The processor is a composition of internal/pipeline stages:
//
//	intake → normalize → pair-renames → batch
//
// intake is the paper's processing queue (bounded, backpressuring the
// DSI); normalize resolves paths against the watch root; pair-renames
// fills MOVED_TO events' OldPath from the matching MOVED_FROM by cookie;
// batch emits count- and latency-bounded slices recycled through a pool.
package resolution

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/lru"
	"fsmonitor/internal/pipeline"
)

// Options configures a Processor.
type Options struct {
	// BatchSize is the maximum events per emitted batch (default
	// pipeline.DefaultLocalBatch).
	BatchSize int
	// BatchInterval flushes a non-empty partial batch after this delay
	// (default pipeline.DefaultBatchInterval), bounding added latency.
	BatchInterval time.Duration
	// PairRenames fills MOVED_TO events' OldPath from the matching
	// MOVED_FROM (by cookie). Default on via New.
	PairRenames bool
	// RenameCacheSize bounds the cookie→source-path cache (default
	// pipeline.DefaultRenameCache).
	RenameCacheSize int
	// QueueSize is the processing queue capacity (default
	// pipeline.DefaultQueueSize).
	QueueSize int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = pipeline.DefaultLocalBatch
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = pipeline.DefaultBatchInterval
	}
	if o.RenameCacheSize <= 0 {
		o.RenameCacheSize = pipeline.DefaultRenameCache
	}
	if o.QueueSize <= 0 {
		o.QueueSize = pipeline.DefaultQueueSize
	}
	return o
}

// Stats counts processor activity.
type Stats struct {
	Processed     uint64
	Batches       uint64
	RenamesPaired uint64
	QueuePeak     int
	// Stages is the underlying per-stage pipeline view (in/out counts,
	// queue high-water marks, blocked time).
	Stages []pipeline.Stats
}

// Processor consumes a DSI event stream and emits processed batches.
type Processor struct {
	opts  Options
	pipe  *pipeline.Pipeline
	queue pipeline.Flow[events.Event]
	out   pipeline.Flow[[]events.Event]
	pool  *pipeline.SlicePool[events.Event]
	// renames is touched by the pair-renames stage's goroutine only.
	renames *lru.Core[uint32, string]

	paired    atomic.Uint64
	closeOnce sync.Once
}

// New starts a processor over src. The processor stops when src closes or
// Close is called; either way the output channel closes after the final
// batch.
func New(src <-chan events.Event, opts Options) *Processor {
	opts = opts.withDefaults()
	opts.PairRenames = true
	return newWith(context.Background(), src, opts)
}

// NewWithOptions starts a processor honouring opts exactly (PairRenames
// as given).
func NewWithOptions(src <-chan events.Event, opts Options) *Processor {
	return newWith(context.Background(), src, opts.withDefaults())
}

// NewContext is New bound to ctx: canceling ctx aborts the processor (the
// graceful path is still Close, which drains).
func NewContext(ctx context.Context, src <-chan events.Event, opts Options) *Processor {
	opts = opts.withDefaults()
	opts.PairRenames = true
	return newWith(ctx, src, opts)
}

func newWith(ctx context.Context, src <-chan events.Event, opts Options) *Processor {
	p := &Processor{
		opts:    opts,
		pipe:    pipeline.New(ctx),
		pool:    pipeline.NewSlicePool[events.Event](opts.BatchSize, 0),
		renames: lru.NewCore[uint32, string](opts.RenameCacheSize),
	}

	p.queue = pipeline.From(p.pipe, "intake", opts.QueueSize, src)
	stream := pipeline.Map(p.pipe, "normalize", pipeline.DefaultStageBuffer, p.queue,
		func(_ context.Context, e events.Event) (events.Event, bool) {
			return events.Normalize(e), true
		})
	if opts.PairRenames {
		stream = pipeline.Map(p.pipe, "pair-renames", pipeline.DefaultStageBuffer, stream, p.pairRename)
	}
	p.out = pipeline.Batch(p.pipe, "batch", pipeline.DefaultBatchDepth, stream,
		opts.BatchSize, opts.BatchInterval, p.pool)
	return p
}

// pairRename resolves rename pairs by cookie (the pair-renames stage).
func (p *Processor) pairRename(_ context.Context, e events.Event) (events.Event, bool) {
	if e.Cookie == 0 {
		return e, true
	}
	switch {
	case e.Op.HasAny(events.OpMovedFrom):
		p.renames.Set(e.Cookie, e.Path)
	case e.Op.HasAny(events.OpMovedTo):
		if e.OldPath == "" {
			if from, ok := p.renames.Get(e.Cookie); ok {
				e.OldPath = from
				p.renames.Delete(e.Cookie)
				p.paired.Add(1)
			}
		} else {
			p.paired.Add(1)
		}
	}
	return e, true
}

// Batches returns the output stream of processed event batches. Consumers
// that do not retain a batch past handling it may return its backing
// slice with Recycle.
func (p *Processor) Batches() <-chan []events.Event { return p.out.C() }

// Recycle returns a delivered batch's backing slice to the processor's
// pool, making the steady-state batch path allocation-free. The caller
// must not touch the slice afterwards; callers that retain batches simply
// never call it.
func (p *Processor) Recycle(batch []events.Event) { p.pool.Put(batch) }

// Stats returns a snapshot of the counters.
func (p *Processor) Stats() Stats {
	return Stats{
		Processed:     p.pipe.StageStats("normalize").Out,
		Batches:       p.pipe.StageStats("batch").Out,
		RenamesPaired: p.paired.Load(),
		QueuePeak:     p.pipe.StageStats("intake").QueuePeak,
		Stages:        p.pipe.Stats(),
	}
}

// Close stops the processor without waiting for the source to end: the
// pipeline drains whatever was accepted (bounded by
// pipeline.DefaultDrainGrace if the consumer is gone) and the output
// channel closes after the final batch.
func (p *Processor) Close() {
	p.closeOnce.Do(func() {
		p.pipe.Drain(pipeline.DefaultDrainGrace)
	})
}

// Transform renders a processed event into the requested representation by
// populating the corresponding template (§III-A2: "we instead support
// transformation into any of the commonly defined formats").
func Transform(e events.Event, f events.Format) (string, error) {
	return events.Transform(e, f)
}
