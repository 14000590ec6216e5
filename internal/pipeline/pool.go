package pipeline

import "sync/atomic"

// Pool recycles pointers to reusable objects (event blocks, scratch
// buffers) between pipeline stages so the steady-state hot path allocates
// nothing per batch. It is a bounded channel-based freelist rather than a
// sync.Pool, so Get/Put never allocate and never block; the element type
// brings its own construction and reset behavior.
type Pool[T any] struct {
	free  chan *T
	fresh func() *T
	reset func(*T)
	built atomic.Uint64
}

// NewPool creates a pool retaining at most slots objects
// (DefaultPoolSlots if <= 0). fresh constructs a new object when the pool
// is empty; reset (optional) clears a returned object before it is
// retained.
func NewPool[T any](slots int, fresh func() *T, reset func(*T)) *Pool[T] {
	if slots <= 0 {
		slots = DefaultPoolSlots
	}
	return &Pool[T]{free: make(chan *T, slots), fresh: fresh, reset: reset}
}

// Get returns a recycled object when one is available and a fresh one
// otherwise. Never blocks.
func (p *Pool[T]) Get() *T {
	select {
	case x := <-p.free:
		return x
	default:
		p.built.Add(1)
		return p.fresh()
	}
}

// Built returns how many objects Get had to construct because nothing had
// come back yet: in steady state it stops growing at the number of objects
// the stages and queues downstream keep in flight.
func (p *Pool[T]) Built() uint64 { return p.built.Load() }

// Put resets the object and returns it for reuse. Never blocks: when the
// pool is full the object is dropped for the GC. Callers must not touch
// the object after Put — in particular, a block published by pointer is
// Put by the transport's release hook (msgq.Pub.PublishLeasedCtx) once
// every receiver has called Done, never by the publisher itself.
func (p *Pool[T]) Put(x *T) {
	if x == nil {
		return
	}
	if p.reset != nil {
		p.reset(x)
	}
	select {
	case p.free <- x:
	default:
	}
}
