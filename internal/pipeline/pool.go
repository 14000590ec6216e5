package pipeline

import (
	"sync"
	"sync/atomic"
)

// Pool recycles pointers to reusable objects (event blocks, scratch
// buffers) between pipeline stages so the steady-state hot path allocates
// nothing per batch. It is a mutex-guarded free list rather than a
// sync.Pool, so Get/Put never block on anything but the list and the GC
// never empties it; the element type brings its own construction and reset
// behavior. It keeps every object that comes back and builds one only when
// it is empty, so it never holds more than the most that were ever out at
// once (Built).
type Pool[T any] struct {
	mu    sync.Mutex
	free  []*T
	fresh func() *T
	reset func(*T)
	built atomic.Uint64
}

// NewPool creates a pool. fresh constructs a new object when the pool is
// empty; reset (optional) clears a returned object before it is kept.
func NewPool[T any](fresh func() *T, reset func(*T)) *Pool[T] {
	return &Pool[T]{fresh: fresh, reset: reset}
}

// Get returns a recycled object when one is available and a fresh one
// otherwise.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	if k := len(p.free) - 1; k >= 0 {
		x := p.free[k]
		p.free[k] = nil
		p.free = p.free[:k]
		p.mu.Unlock()
		return x
	}
	p.mu.Unlock()
	p.built.Add(1)
	return p.fresh()
}

// Built returns how many objects Get had to construct because nothing had
// come back yet: in steady state it stops growing at the number of objects
// the stages and queues downstream keep in flight.
func (p *Pool[T]) Built() uint64 { return p.built.Load() }

// Put resets the object and keeps it for reuse. Callers must not touch the
// object after Put — in particular, a block published by pointer is Put by
// the transport's release hook (msgq.Pub.PublishLeasedCtx) once every
// receiver has called Done, never by the publisher itself.
func (p *Pool[T]) Put(x *T) {
	if x == nil {
		return
	}
	if p.reset != nil {
		p.reset(x)
	}
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}
