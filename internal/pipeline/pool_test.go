package pipeline

import (
	"math/rand"
	"sync"
	"testing"
)

// A pool keeps every object that comes back and builds only when it is
// empty: over random bursts of Gets, each followed by most of the objects
// coming back in random order, what it holds plus what is out is always
// exactly what it built, it built no more than were ever out at once, and
// no object is out twice.
func TestPoolKeepsWhatItBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool(func() *int { return new(int) }, func(x *int) { *x = 0 })
	var out []*int
	isOut := map[*int]bool{}
	peak := 0
	check := func(what string) {
		t.Helper()
		p.mu.Lock()
		idle := len(p.free)
		p.mu.Unlock()
		if built := p.Built(); uint64(idle+len(out)) != built || built != uint64(peak) {
			t.Fatalf("%s: %d idle and %d out (at most %d), yet %d built", what, idle, len(out), peak, built)
		}
	}
	for round := 0; round < 20; round++ {
		for n := rng.Intn(300); len(out) < n; {
			x := p.Get()
			if isOut[x] || *x != 0 {
				t.Fatalf("round %d: Get handed out an object that is out or was not reset", round)
			}
			isOut[x] = true
			out = append(out, x)
			peak = max(peak, len(out))
			check("after a Get")
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		for keep := rng.Intn(len(out)/8 + 1); len(out) > keep; {
			x := out[len(out)-1]
			out = out[:len(out)-1]
			delete(isOut, x)
			*x = 1
			p.Put(x)
			check("after a Put")
		}
	}
}

// Gets and Puts from several goroutines at once (a lease's release hook
// Puts on whichever receiver finishes last) lose nothing: once everything
// is back, the pool holds every object it built, and it built no more than
// were ever out at once.
func TestPoolConcurrentGetPut(t *testing.T) {
	const workers = 4
	p := NewPool(func() *int { return new(int) }, nil)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x, y := p.Get(), p.Get()
				p.Put(x)
				p.Put(y)
			}
		}()
	}
	wg.Wait()
	if idle, built := len(p.free), p.Built(); uint64(idle) != built || built > 2*workers {
		t.Fatalf("%d idle of %d built; want all of at most %d", idle, built, 2*workers)
	}
}
