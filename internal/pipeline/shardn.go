package pipeline

import "context"

// ShardN starts a key-affine parallel transform stage: lane = key(v) %
// workers picks which of the workers goroutines handles an item, so every
// item with the same key is processed by the same lane in arrival order.
// Unlike MapN there is no resequencer — lanes emit independently, so the
// stage preserves per-key order but not the total upstream order. That is
// exactly the contract of a partitioned aggregation tier: events within a
// partition stay ordered while partitions proceed in parallel.
//
// Per-lane queues hold one item (bounded memory, real backpressure): the
// dispatcher blocks when a lane is behind rather than buffering without
// bound or reordering across lanes. Like Map/MapN, the stage drains its
// input to completion on Drain and exits early only on abort; its output
// closes when every lane has finished. key must return a non-negative int.
//
// workers <= 1 degenerates to Map (same semantics, no dispatch overhead).
func ShardN[In, Out any](p *Pipeline, name string, buf, workers int, in Flow[In], key func(In) int, fn func(context.Context, In) (Out, bool)) Flow[Out] {
	if workers <= 1 {
		return Map(p, name, buf, in, fn)
	}
	st := p.newStage(name)
	out := make(chan Out, bufOr(buf))
	ins := make([]chan In, workers)
	for w := range ins {
		ins[w] = make(chan In, 1)
	}

	// Dispatcher: route each item to its key's lane. Closing the lane
	// queues on exit lets the lanes drain and finish on graceful stop.
	p.spawn(func() {
		defer func() {
			for _, c := range ins {
				close(c)
			}
		}()
		for {
			v, ok := recv(p, in.ch)
			if !ok {
				return
			}
			st.in.Add(1)
			select {
			case ins[key(v)%workers] <- v:
			case <-p.hard.Done():
				return
			}
		}
	})

	// Lanes: each drains its own queue and emits straight to the shared
	// output. A lane is the only goroutine sending its keys' results, so
	// per-key output order matches per-key input order.
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		w := w
		p.spawn(func() {
			defer func() { done <- struct{}{} }()
			for v := range ins[w] {
				o, keep := fn(p.hard, v)
				if !keep {
					continue
				}
				if !send(p, st, out, o) {
					return
				}
			}
		})
	}

	// Closer: the output closes once every lane has exited.
	p.spawn(func() {
		defer close(out)
		for i := 0; i < workers; i++ {
			<-done
		}
	})
	return Flow[Out]{ch: out}
}
