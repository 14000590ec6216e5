package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/scalable"
	"fsmonitor/internal/telemetry"
)

// benchAggregator drives the aggregation tier with four synthetic
// collectors publishing pre-marshaled 512-event batches; b.N counts
// events. reg == nil is the production default (telemetry disabled); a
// non-nil registry turns on store/latency instrumentation so the two
// variants measure its overhead. traceEvery1In, when > 0, interleaves
// span-traced payloads at that per-event sampling rate: a traced batch
// takes the aggregator's decode → span-append → deferred re-encode path
// instead of the plain store-lane re-encode.
func benchAggregator(b *testing.B, parts int, reg *telemetry.Registry, traceEvery1In int) {
	benchAggregatorOverhead(b, parts, reg, traceEvery1In, time.Microsecond)
}

func benchAggregatorOverhead(b *testing.B, parts int, reg *telemetry.Registry, traceEvery1In int, overhead time.Duration) {
	const (
		collectors = 4
		batchSize  = 512
	)
	pubs := make([]*msgq.Pub, collectors)
	eps := make([]string, collectors)
	for i := range pubs {
		pubs[i] = msgq.NewPub(msgq.WithBlockOnFull())
		eps[i] = fmt.Sprintf("inproc://bench-agg-%p-c%d", b, i)
		if err := pubs[i].Bind(eps[i]); err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		for _, p := range pubs {
			p.Close()
		}
	}()
	// Bounded engine: the bench measures store throughput, not
	// retention, so cap the window instead of holding b.N events.
	eng, err := eventstore.NewSharded(parts, eventstore.Options{MaxEvents: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	agg, err := scalable.NewAggregator(scalable.AggregatorOptions{
		CollectorEndpoints: eps,
		Endpoint:           fmt.Sprintf("inproc://bench-agg-%p", b),
		Engine:             eng,
		EventOverhead:      overhead,
		Telemetry:          reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer agg.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	for _, p := range pubs {
		if err := p.WaitSubscribed(ctx); err != nil {
			cancel()
			b.Fatal(err)
		}
	}
	cancel()

	// Collectors only stamp batches when telemetry is attached, so the
	// disabled variant's payloads carry no stamp (and no stamp wire
	// bytes) — exactly what an uninstrumented deployment ships.
	var stamp int64
	if reg != nil {
		stamp = telemetry.Stamp()
	}
	payloads := make([][]byte, collectors)
	traced := make([][]byte, collectors)
	// tracedEvery interleaves one traced batch per that many published
	// batches, approximating the per-event 1-in-N rate with batchSize
	// events per batch (1-in-1024 events ≈ every 2nd batch of 512).
	tracedEvery := 0
	if traceEvery1In > 0 {
		tracedEvery = (traceEvery1In + batchSize - 1) / batchSize
	}
	for i := range payloads {
		batch := make([]events.Event, batchSize)
		for j := range batch {
			batch[j] = events.Event{
				Root: "/mnt/lustre", Op: events.OpCreate,
				Path:   fmt.Sprintf("/bench/mdt%d/f%06d", i, j),
				Source: "bench",
			}
		}
		payloads[i] = eventstest.WireBatch(b, batch, stamp, nil)
		if tracedEvery > 0 {
			tr := &events.BatchTrace{ID: events.EventKey(batch[0])}
			tr.Append(events.TierCollect, stamp)
			tr.Append(events.TierResolve, stamp)
			tr.Append(events.TierPublish, stamp)
			traced[i] = eventstest.WireBatch(b, batch, stamp, tr)
		}
	}

	batches := (b.N + batchSize - 1) / batchSize
	total := uint64(batches) * batchSize
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < collectors; c++ {
		n := batches / collectors
		if c < batches%collectors {
			n++
		}
		go func(c, n int) {
			topic := fmt.Sprintf("%smdt%d", scalable.TopicPrefix, c)
			for k := 0; k < n; k++ {
				p := payloads[c]
				if tracedEvery > 0 && k%tracedEvery == 0 {
					p = traced[c]
				}
				pubs[c].Publish(topic, p)
			}
		}(c, n)
	}
	for agg.Stats().Stored < total {
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(total)/elapsed.Seconds(), "events/s")
}

// BenchmarkAggregatorThroughput measures aggregate store throughput of the
// aggregation tier at 1, 2, and 4 partitions with telemetry disabled (the
// default). Four synthetic collectors (one per MDT topic) publish
// pre-marshaled 512-event batches at the aggregator, which decodes, paces
// the accounted per-event aggregation cost on the owning partition's lane,
// persists into its shard, and re-encodes for republish. With one
// partition every batch funnels through one store lane (the paper's serial
// aggregator); with four, the lanes run concurrently and aggregate
// events/s should scale well past 2x.
func BenchmarkAggregatorThroughput(b *testing.B) {
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			benchAggregator(b, parts, nil, 0)
		})
	}
}

// BenchmarkAggregatorThroughputRaw is the same workload with the accounted
// per-event aggregation cost dialed down to 1ns: the paced variant above
// sleeps EventOverhead per event on the owning lane, which caps one
// partition at 1M events/s no matter how fast the code is. This variant
// removes that simulated ceiling so the metric is the pipeline's own
// mechanical throughput — the number the zero-copy block refactor moves.
func BenchmarkAggregatorThroughputRaw(b *testing.B) {
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			benchAggregatorOverhead(b, parts, nil, 0, time.Nanosecond)
		})
	}
}

// BenchmarkAggregatorThroughputTelemetry is the same workload with a live
// registry attached: store lanes timed, capture-to-store latency traced
// from the events' stamps, every stat mirrored. Compare against
// BenchmarkAggregatorThroughput — the delta is the total observability
// overhead, and the telemetry acceptance gate is that it stays under 5%.
func BenchmarkAggregatorThroughputTelemetry(b *testing.B) {
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			benchAggregator(b, parts, telemetry.NewRegistry(), 0)
		})
	}
}

// BenchmarkAggregatorThroughputTraced adds 1-in-1024 per-event span
// tracing on top of the telemetry variant: roughly every second batch
// carries a trace section, taking the decode → span-append → deferred
// republish-re-encode path. Compare against ...Telemetry — the events/s
// delta is the tracing overhead, and the acceptance gate is that it stays
// under 5% at this sampling rate.
func BenchmarkAggregatorThroughputTraced(b *testing.B) {
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			reg := telemetry.NewRegistry()
			reg.EnableTracing(1024, 0)
			benchAggregator(b, parts, reg, 1024)
		})
	}
}
