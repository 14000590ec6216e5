// Package resolution implements FSMonitor's middle layer (§III-A2): "a
// queue to receive and manage events until they are processed. As events
// are received from a DSI plugin they are immediately placed in the
// processing queue. The events are then processed to resolve and
// dereference paths such that events can be transformed into various
// representations." It also provides the layer's performance
// optimizations: batching and caching.
//
// The processing queue is the DSI's event channel itself (bounded,
// backpressuring the DSI). Processor.Run is one loop over it: it
// normalizes each event against the watch root, fills a MOVED_TO event's
// OldPath from the matching MOVED_FROM by cookie, and hands count- and
// latency-bounded batches to a sink. When the channel closes, Run hands
// over the final partial batch and returns, so everything the DSI accepted
// reaches the sink.
package resolution

import (
	"sync/atomic"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/lru"
	"fsmonitor/internal/pipeline"
)

// Stats counts processor activity.
type Stats struct {
	Processed     uint64
	Batches       uint64
	RenamesPaired uint64
}

// Processor turns a DSI event stream into processed batches.
type Processor struct {
	src  <-chan events.Event
	size int
	// renames is touched by Run's goroutine only.
	renames *lru.Core[uint32, string]

	processed, batches, paired atomic.Uint64
}

// New returns a processor over src emitting batches of at most batchSize
// events (pipeline.DefaultLocalBatch when batchSize <= 0). Nothing runs
// until Run.
func New(src <-chan events.Event, batchSize int) *Processor {
	if batchSize <= 0 {
		batchSize = pipeline.DefaultLocalBatch
	}
	return &Processor{
		src:  src,
		size: batchSize,
		// Fibonacci hashing mixes a cookie into the high bits lru indexes by.
		renames: lru.NewCore[uint32, string](pipeline.DefaultRenameCache, func(c uint32) uint64 { return uint64(c) * 0x9e3779b97f4a7c15 }),
	}
}

// Run reads src until it closes, calling sink with each batch: when it
// reaches the batch size, when pipeline.DefaultBatchInterval has passed
// since its first event, and once more for the partial batch left when src
// closes. The batch slice is reused after sink returns, so sink must copy
// what it keeps. Run returns sink's first error without reading further,
// and nil once src is drained.
func (p *Processor) Run(sink func([]events.Event) error) error {
	batch := make([]events.Event, 0, p.size)
	timer := time.NewTimer(pipeline.DefaultBatchInterval)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		p.processed.Add(uint64(len(batch)))
		p.batches.Add(1)
		err := sink(batch)
		// Zeroed so the reused slice does not pin paths past their batch.
		clear(batch)
		batch = batch[:0]
		return err
	}
	for {
		select {
		case e, ok := <-p.src:
			if !ok {
				return flush()
			}
			batch = append(batch, p.pairRename(events.Normalize(e)))
			if len(batch) == 1 {
				timer.Reset(pipeline.DefaultBatchInterval)
			}
			if len(batch) < p.size {
				continue
			}
			// A size flush stops the interval timer, draining a tick that
			// already fired so it cannot flush the next batch early.
			if !timer.Stop() {
				<-timer.C
			}
			if err := flush(); err != nil {
				return err
			}
		case <-timer.C:
			if err := flush(); err != nil {
				return err
			}
		}
	}
}

// pairRename resolves rename pairs by cookie.
func (p *Processor) pairRename(e events.Event) events.Event {
	if e.Cookie == 0 {
		return e
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
	return e
}

// Stats returns a snapshot of the counters.
func (p *Processor) Stats() Stats {
	return Stats{
		Processed:     p.processed.Load(),
		Batches:       p.batches.Load(),
		RenamesPaired: p.paired.Load(),
	}
}

// Transform renders a processed event into the requested representation by
// populating the corresponding template (§III-A2: "we instead support
// transformation into any of the commonly defined formats").
func Transform(e events.Event, f events.Format) (string, error) {
	return events.Transform(e, f)
}
