package scalable

import (
	"fmt"
	"testing"
	"time"

	"fsmonitor/internal/pipeline"
)

// raceSlowdown scales the stall tests' wall-clock bounds (race_test.go).
var raceSlowdown time.Duration = 1

func transportName(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "inproc"
}

// stallBatches is a backlog, in blocks of 512 events, that a consumer which
// reads nothing cannot absorb: over TCP it must outgrow a loopback
// connection's buffers as well as the queues.
func stallBatches(tcp bool) int {
	if tcp {
		return 600
	}
	return 200
}

// A consumer that reads nothing holds its aggregator for one stall bound,
// not for good: it is evicted, and a consumer beside it that does read
// receives the whole backlog — over TCP 600 blocks of 512 events — within
// 5 s plus the bound. Once the stalled consumer reads, it resumes from its
// own cursors and receives every event exactly once, in per-partition
// order. In process and over TCP, in every leaseShape.
func TestStalledConsumerStallsNothing(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			for _, shape := range leaseShapes {
				t.Run(shape.name, func(t *testing.T) {
					const batchSize = 512
					want := stallBatches(tcp) * batchSize
					r := newLeaseRig(t, shape, stallBatches(tcp), batchSize, tcp, tcp)
					stalled := r.consumer(t, r.agg.Endpoint(), 1)
					drained := r.consumer(t, r.agg.Endpoint(), 0)
					r.release()
					began := time.Now()
					limit := raceSlowdown*5*time.Second + pipeline.StallBound
					got := drainUntil(drained, want, limit)
					if took := time.Since(began); len(got) != want || took > limit {
						t.Fatalf("the drained consumer received %d of %d events in %v, want all within %v", len(got), want, took.Round(time.Millisecond), limit)
					}
					checkBacklog(t, "drained", got, shape.parts)
					if n := r.agg.pub.Evicted(); n == 0 {
						t.Errorf("the stalled consumer was never evicted: its subscription holds %d of %d, the publisher's queues hold %v (TCP, then in process)\nstalled %+v\ndrained %+v",
							stalled.sub.Depth(), stalled.sub.Cap(), r.agg.pub.Queued(), stalled.Stats(), drained.Stats())
					}
					checkBacklog(t, "stalled", collect(t, stalled, want), shape.parts)
				})
			}
		})
	}
}

// Closing an aggregator that has a consumer attached which reads nothing
// takes about one stall bound, in process and over TCP: the republish that
// waits on the consumer's full queue evicts it instead of holding the drain
// until DefaultDrainGrace (or, in process, for good).
func TestAggregatorCloseWithStalledConsumer(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			r := newLeaseRig(t, leaseShapes[0], stallBatches(tcp), 512, tcp, tcp)
			con := r.consumer(t, r.agg.Endpoint(), 1)
			r.release()
			// Close once the republish has stopped moving: it waits on the
			// consumer's full queue.
			var published uint64
			for stable := 0; stable < 10; time.Sleep(10 * time.Millisecond) {
				if now := r.agg.Stats().Published; now != published || now == 0 {
					published, stable = now, 0
				} else {
					stable++
				}
			}
			began := time.Now()
			closed := make(chan struct{})
			go func() {
				r.agg.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(2 * pipeline.DefaultDrainGrace):
				t.Fatal("Aggregator.Close still blocked")
			}
			if took := time.Since(began); took > raceSlowdown*time.Second {
				t.Errorf("Aggregator.Close took %v with a stalled consumer attached, want at most 1s", took.Round(time.Millisecond))
			}
			go func() { // let the consumer's own Close drain
				for range con.C() {
				}
			}()
		})
	}
}

// A consumer evicted while events keep coming heals from its cursors while
// they still come, and receives every event exactly once, in per-partition
// order: the catch-up repeated once the re-link is back misses nothing the
// aggregator published before it took the new link's subscription, however
// the first catch-up raced that. In process and over TCP.
func TestEvictedConsumerHealsUnderLiveTraffic(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			const batchSize, liveBatches = 512, 100
			shape := leaseShapes[1]
			backlog := stallBatches(tcp)
			want := (backlog + liveBatches) * batchSize
			r := newLeaseRig(t, shape, backlog, batchSize, tcp, tcp)
			con := r.consumer(t, r.agg.Endpoint(), 1)
			r.release()
			for deadline := time.Now().Add(raceSlowdown * 10 * time.Second); r.agg.pub.Evicted() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the consumer that reads nothing was never evicted")
				}
			}
			written := make(chan error, 1)
			go func() { // the live traffic: more creates, paced over the heal
				cl := r.cluster.Client()
				for i := backlog * batchSize; i < want; i++ {
					if err := cl.Create(fmt.Sprintf("/f%06d", i)); err != nil {
						written <- err
						return
					}
					if i%batchSize == 0 {
						time.Sleep(time.Millisecond)
					}
				}
				written <- nil
			}()
			got := collect(t, con, want)
			if err := <-written; err != nil {
				t.Fatal(err)
			}
			checkBacklog(t, "evicted", got, shape.parts)
			if con.Stats().Recovered == 0 {
				t.Error("the evicted consumer never healed")
			}
		})
	}
}
