package pipeline

import "context"

// MapN starts a parallel transform stage: up to workers invocations of fn
// run concurrently, but outputs are emitted in input order. A dispatcher
// deals inputs round-robin to per-worker queues and a resequencer reads
// results back in the same order, so the stage preserves the total
// upstream order — and therefore every per-key order (per-FID, per-source)
// — while the fn calls themselves overlap. This is what lets the
// collector's resolve stage use N cores without reordering a FID's CREAT
// ahead of its UNLNK or publishing Changelog purge cursors out of order.
//
// Per-worker queues hold one item, so the stage reads at most 2×workers
// items ahead of the slowest call (bounded memory, real backpressure).
// Like Map, the stage drains its input to completion on Drain and exits
// early only on abort; its output closes when it exits. Stats fold into
// the pipeline's per-stage surface under the stage name.
//
// workers <= 1 degenerates to Map (same semantics, no dispatch overhead).
func MapN[In, Out any](p *Pipeline, name string, buf, workers int, in Flow[In], fn func(context.Context, In) (Out, bool)) Flow[Out] {
	if workers <= 1 {
		return Map(p, name, buf, in, fn)
	}
	st := p.newStage(name)
	out := make(chan Out, bufOr(buf))
	type slot struct {
		v    Out
		keep bool
	}
	ins := make([]chan In, workers)
	res := make([]chan slot, workers)
	for w := range ins {
		ins[w] = make(chan In, 1)
		res[w] = make(chan slot, 1)
	}

	// Dispatcher: deal inputs round-robin. Closing every worker queue on
	// exit is what lets the workers (and then the resequencer) drain and
	// close in order on graceful stop.
	p.spawn(func() {
		defer func() {
			for _, c := range ins {
				close(c)
			}
		}()
		next := 0
		for {
			v, ok := recv(p, in.ch)
			if !ok {
				return
			}
			st.in.Add(1)
			select {
			case ins[next] <- v:
			case <-p.hard.Done():
				return
			}
			next = (next + 1) % workers
		}
	})

	for w := 0; w < workers; w++ {
		w := w
		p.spawn(func() {
			defer close(res[w])
			for v := range ins[w] {
				o, keep := fn(p.hard, v)
				select {
				case res[w] <- slot{v: o, keep: keep}:
				case <-p.hard.Done():
					return
				}
			}
		})
	}

	// Resequencer: read results in dispatch order. Indices are dealt
	// strictly increasing, so the first closed worker queue at its own
	// turn proves every dispatched item has already been collected.
	p.spawn(func() {
		defer close(out)
		next := 0
		for {
			var s slot
			var ok bool
			select {
			case s, ok = <-res[next]:
			case <-p.hard.Done():
				return
			}
			if !ok {
				return
			}
			next = (next + 1) % workers
			if !s.keep {
				continue
			}
			if !send(p, st, out, s.v) {
				return
			}
		}
	})
	return Flow[Out]{ch: out}
}
