package pipeline

import "sync/atomic"

// SlicePool recycles []T batch buffers between pipeline stages so the
// steady-state hot path allocates nothing per batch: the batcher Gets an
// empty slice, fills it, the downstream consumer Puts it back once the
// events have been handed off. It is a bounded channel-based freelist
// rather than a sync.Pool — Get/Put of a slice through sync.Pool boxes
// the slice header into an interface (one allocation per cycle), which is
// exactly the per-batch garbage this pool exists to kill.
type SlicePool[T any] struct {
	free     chan []T
	sliceCap int
}

// NewSlicePool creates a pool handing out slices with capacity sliceCap
// (DefaultLocalBatch if <= 0), retaining at most slots of them
// (DefaultPoolSlots if <= 0).
func NewSlicePool[T any](sliceCap, slots int) *SlicePool[T] {
	if sliceCap <= 0 {
		sliceCap = DefaultLocalBatch
	}
	if slots <= 0 {
		slots = DefaultPoolSlots
	}
	return &SlicePool[T]{free: make(chan []T, slots), sliceCap: sliceCap}
}

// Get returns an empty slice, recycled when one is available and freshly
// allocated otherwise. Never blocks.
func (sp *SlicePool[T]) Get() []T {
	select {
	case s := <-sp.free:
		return s
	default:
		return make([]T, 0, sp.sliceCap)
	}
}

// Put returns a slice for reuse. Elements are zeroed so recycled buffers
// don't pin event payloads (paths, attribute strings) past their batch.
// Never blocks: when the pool is full the slice is simply dropped for the
// GC. Callers must not touch the slice after Put.
func (sp *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	select {
	case sp.free <- s[:0]:
	default:
	}
}

// Pool recycles pointers to reusable objects (event blocks, scratch
// buffers) between pipeline stages. Like SlicePool it is a bounded
// channel-based freelist rather than a sync.Pool, so Get/Put never
// allocate and never block; unlike SlicePool the element type carries its
// own construction and reset behavior.
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
