// Package pipeline is the staged-streaming substrate of FSMonitor's
// scalable Lustre path (per-MDS collector → aggregator → consumer, §IV /
// Fig. 4): producers and consumers joined by bounded queues that batch
// events between stages. It makes that shape a first-class concept once —
// typed stages composed over bounded channels with explicit backpressure
// (sends block, they never silently drop), context-driven cancellation
// with ordered drain-on-shutdown, object recycling through Pool, and a
// uniform per-stage Stats surface — so hot-path optimizations (sharding,
// parallel resolution) plug into one place. It also holds the tuning
// defaults both event paths share (defaults.go).
//
// Lifecycle. A Pipeline carries two nested contexts:
//
//   - the run context (soft): canceled by Drain. Sources stop accepting
//     new items and close their outputs; downstream stages keep draining
//     until their inputs close, so every item accepted into stage 1 still
//     reaches the sink. This is the ordered-drain shutdown.
//   - the abort context (hard): canceled by the parent context given to
//     New, or by Drain once its grace period has passed (a sink blocked on
//     a consumer that went away). Blocked sends and receives unwind
//     immediately; in-flight items may be discarded.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a snapshot of one stage's counters — the uniform surface every
// stage exposes regardless of which layer it implements.
type Stats struct {
	// Name identifies the stage within its pipeline.
	Name string
	// In counts items received from upstream (0 for source stages).
	In uint64
	// Out counts items emitted downstream.
	Out uint64
	// QueuePeak is the high-water mark of the stage's output queue.
	QueuePeak int
	// Blocked is cumulative time spent blocked on a full downstream
	// queue — the backpressure this stage absorbed.
	Blocked time.Duration
}

// stage holds one stage's live counters.
type stage struct {
	name      string
	in, out   atomic.Uint64
	queuePeak atomic.Int64
	blockedNs atomic.Int64
}

func (s *stage) snapshot() Stats {
	return Stats{
		Name:      s.name,
		In:        s.in.Load(),
		Out:       s.out.Load(),
		QueuePeak: int(s.queuePeak.Load()),
		Blocked:   time.Duration(s.blockedNs.Load()),
	}
}

// Pipeline owns a set of stages and their shared lifecycle.
type Pipeline struct {
	soft       context.Context
	softCancel context.CancelFunc
	hard       context.Context
	hardCancel context.CancelFunc

	mu     sync.Mutex
	stages []*stage
	wg     sync.WaitGroup
}

// New creates an empty pipeline. Canceling parent aborts the pipeline
// (hard); use Drain for a graceful stop. A nil parent means Background.
func New(parent context.Context) *Pipeline {
	if parent == nil {
		parent = context.Background()
	}
	hard, hardCancel := context.WithCancel(parent)
	soft, softCancel := context.WithCancel(hard)
	return &Pipeline{
		soft:       soft,
		softCancel: softCancel,
		hard:       hard,
		hardCancel: hardCancel,
	}
}

// Drain cancels the run context and waits for the ordered drain — sources
// stop, each stage finishes its input and closes its output, sinks consume
// everything that was accepted — escalating to an abort if it has not
// finished after grace (grace <= 0 waits forever). Once the parent context
// is canceled, Drain only waits for the stages to unwind.
func (p *Pipeline) Drain(grace time.Duration) {
	p.softCancel()
	if grace > 0 {
		t := time.AfterFunc(grace, p.hardCancel)
		defer t.Stop()
	}
	p.wg.Wait()
}

// Stats snapshots every stage in registration (upstream-first) order.
func (p *Pipeline) Stats() []Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Stats, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.snapshot()
	}
	return out
}

func (p *Pipeline) newStage(name string) *stage {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Stage names must be unique within a pipeline: a repeated name would
	// make two stages' snapshots indistinguishable (and collide in any
	// telemetry namespace built from stage names). Suffix repeats as
	// "name#2", "name#3", ...
	base, n := name, 1
	for taken := true; taken; {
		taken = false
		for _, s := range p.stages {
			if s.name == name {
				n++
				name = fmt.Sprintf("%s#%d", base, n)
				taken = true
				break
			}
		}
	}
	st := &stage{name: name}
	p.stages = append(p.stages, st)
	return st
}

func (p *Pipeline) spawn(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
}

// Flow is a typed handle to one stage's output stream; it closes when the
// stage exits.
type Flow[T any] struct {
	ch chan T
}

func bufOr(n int) int {
	if n <= 0 {
		return DefaultStageBuffer
	}
	return n
}

// send delivers v downstream with explicit backpressure: it blocks when
// the queue is full (accounting the blocked time) and unwinds only on
// abort. It never drops silently.
func send[T any](p *Pipeline, st *stage, ch chan T, v T) bool {
	select {
	case ch <- v:
	default:
		start := time.Now()
		select {
		case ch <- v:
			st.blockedNs.Add(int64(time.Since(start)))
		case <-p.hard.Done():
			st.blockedNs.Add(int64(time.Since(start)))
			return false
		}
	}
	st.out.Add(1)
	if d := int64(len(ch)); d > st.queuePeak.Load() {
		st.queuePeak.Store(d)
	}
	return true
}

// recv receives from upstream, unwinding on abort. ok is false when the
// upstream closed or the pipeline aborted.
func recv[T any](p *Pipeline, in <-chan T) (v T, ok bool) {
	select {
	case v, ok = <-in:
		return v, ok
	case <-p.hard.Done():
		return v, false
	}
}

// Source starts a producer stage. fn runs in its own goroutine with the
// pipeline's run context; emit accepts an item into the pipeline and
// reports false once the pipeline is stopping (the item was NOT accepted
// and fn should return). The output closes when fn returns.
func Source[T any](p *Pipeline, name string, buf int, fn func(ctx context.Context, emit func(T) bool) error) Flow[T] {
	st := p.newStage(name)
	ch := make(chan T, bufOr(buf))
	p.spawn(func() {
		defer close(ch)
		emit := func(v T) bool {
			if p.soft.Err() != nil {
				return false
			}
			return send(p, st, ch, v)
		}
		_ = fn(p.soft, emit)
	})
	return Flow[T]{ch: ch}
}

// Map starts a transform stage: fn maps each input to at most one output
// (return keep=false to drop). Single-goroutine, so per-flow order is
// preserved. The stage drains its input to completion on Drain and exits
// early only on abort; its output closes when it exits.
func Map[In, Out any](p *Pipeline, name string, buf int, in Flow[In], fn func(context.Context, In) (Out, bool)) Flow[Out] {
	st := p.newStage(name)
	ch := make(chan Out, bufOr(buf))
	p.spawn(func() {
		defer close(ch)
		for {
			v, ok := recv(p, in.ch)
			if !ok {
				return
			}
			st.in.Add(1)
			w, keep := fn(p.hard, v)
			if !keep {
				continue
			}
			if !send(p, st, ch, w) {
				return
			}
		}
	})
	return Flow[Out]{ch: ch}
}

// Sink starts a terminal consumer stage: fn runs for every item until the
// input closes (Drain drains first) or the pipeline aborts. fn receives the
// abort context so its own blocking operations can unwind.
func Sink[In any](p *Pipeline, name string, in Flow[In], fn func(context.Context, In)) {
	st := p.newStage(name)
	p.spawn(func() {
		for {
			v, ok := recv(p, in.ch)
			if !ok {
				return
			}
			st.in.Add(1)
			fn(p.hard, v)
			st.out.Add(1)
		}
	})
}
