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

// benchStreams is the number of synthetic collector streams the tier
// benches publish: one publisher and one pre-marshaled payload each.
const benchStreams = 4

// benchTier is the topology both tier benches drive: benchStreams
// synthetic collectors in front of one aggregation tier, which is the
// classic aggregator when nodes == 0 and a cluster of that many members
// otherwise. The members are the same type with an ID and a share of the
// partitions, so everything after construction — payloads, warm-up, the
// timed loop, the stored count — is one code path.
type benchTier struct {
	pubs   []*msgq.Pub
	aggs   []*scalable.Aggregator
	topics []string // stream → the intake topic its batches are published on
}

// buildTier starts the topology and resolves each stream's intake topic: the
// per-MDT topic for a classic aggregator (stream c lands in partition
// c % parts), the owning member's routed inbox for a cluster (the
// collector's routing decision, pre-computed). Engines are bounded — the
// benches measure store throughput, not the retention window.
func buildTier(b *testing.B, nodes, parts int, reg *telemetry.Registry, overhead time.Duration) *benchTier {
	t := &benchTier{pubs: make([]*msgq.Pub, benchStreams), topics: make([]string, benchStreams)}
	b.Cleanup(t.close)
	eps := make([]string, benchStreams)
	for i := range t.pubs {
		t.pubs[i] = msgq.NewPub(msgq.WithBlockOnFull())
		eps[i] = fmt.Sprintf("inproc://bench-tier-%p-c%d", b, i)
		if err := t.pubs[i].Bind(eps[i]); err != nil {
			b.Fatal(err)
		}
	}
	member := func(id string, join []string) *scalable.Aggregator {
		mk := eventstore.NewSharded
		if id != "" {
			mk = eventstore.NewShardedClosed
		}
		eng, err := mk(parts, eventstore.Options{MaxEvents: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { eng.Close() })
		agg, err := scalable.NewAggregator(scalable.AggregatorOptions{
			ID:                 id,
			Join:               join,
			CollectorEndpoints: eps,
			Endpoint:           fmt.Sprintf("inproc://bench-tier-%p-agg%s", b, id),
			Engine:             eng,
			EventOverhead:      overhead,
			Telemetry:          reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		t.aggs = append(t.aggs, agg)
		return agg
	}
	if nodes == 0 {
		member("", nil)
		for c := range t.topics {
			t.topics[c] = fmt.Sprintf("%smdt%d", scalable.TopicPrefix, c)
		}
		return t
	}
	for i := 0; i < nodes; i++ {
		var join []string
		if i > 0 {
			join = []string{t.aggs[0].Endpoint()}
		}
		if err := member(fmt.Sprintf("n%d", i), join).Start(); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range t.aggs {
		if err := n.Membership().WaitMembers(nodes, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	owner := make([]string, parts) // partition → owning member ID
	deadline := time.Now().Add(10 * time.Second)
	for {
		owned := 0
		for _, n := range t.aggs {
			for _, p := range n.OwnedPartitions() {
				owner[p] = n.ID()
				owned++
			}
		}
		if owned == parts {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("cluster owns %d/%d partitions", owned, parts)
		}
		time.Sleep(time.Millisecond)
	}
	for c := range t.topics {
		t.topics[c] = msgq.NodeTopic(owner[c%parts], c%parts)
	}
	return t
}

func (t *benchTier) stored() uint64 {
	var s uint64
	for _, a := range t.aggs {
		s += a.Stats().Stored
	}
	return s
}

func (t *benchTier) close() {
	for _, a := range t.aggs {
		a.Close()
	}
	for _, p := range t.pubs {
		if p != nil {
			p.Close()
		}
	}
}

// benchAggregator drives the classic aggregator; see benchTierThroughput.
func benchAggregator(b *testing.B, parts int, reg *telemetry.Registry, traceEvery1In int) {
	benchTierThroughput(b, 0, parts, reg, traceEvery1In, time.Microsecond)
}

// benchTierThroughput drives the aggregation tier with benchStreams
// synthetic collectors publishing pre-marshaled 512-event batches; b.N
// counts events. Every store lane paces the accounted per-event aggregation
// cost on its own throttle — a lane is the paper's serial store thread,
// whichever aggregator runs it. reg == nil is the production default
// (telemetry disabled); a non-nil registry turns on the observability plane
// — store/latency instrumentation and the conservation audit, plus
// per-member gauges and federated snapshots at heartbeat cadence in a
// cluster — so the two variants measure its overhead. traceEvery1In, when
// > 0, interleaves span-traced payloads at that per-event sampling rate: a
// traced batch takes the aggregator's decode → span-append → deferred
// re-encode path instead of the plain store-lane re-encode.
func benchTierThroughput(b *testing.B, nodes, parts int, reg *telemetry.Registry, traceEvery1In int, overhead time.Duration) {
	const batchSize = 512
	tier := buildTier(b, nodes, parts, reg, overhead)

	// Collectors only stamp batches when telemetry is attached, so the
	// disabled variant's payloads carry no stamp (and no stamp wire
	// bytes) — exactly what an uninstrumented deployment ships.
	var stamp int64
	if reg != nil {
		stamp = telemetry.Stamp()
	}
	payloads := make([][]byte, benchStreams)
	traced := make([][]byte, benchStreams)
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

	// Warm-up: one single-event batch per stream, republished until the
	// intake accepts it — the timed loop must not race the connect handshake
	// and silently drop its first batches.
	warm := eventstest.WireBatch(b, []events.Event{{
		Root: "/mnt/lustre", Op: events.OpCreate, Path: "/bench/warm", Source: "bench",
	}}, 0, nil)
	for c, pub := range tier.pubs {
		for pub.PublishCtx(context.Background(), tier.topics[c], warm) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	for tier.stored() < benchStreams {
		time.Sleep(200 * time.Microsecond)
	}

	batches := (b.N + batchSize - 1) / batchSize
	total := uint64(batches)*batchSize + benchStreams
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < benchStreams; c++ {
		n := batches / benchStreams
		if c < batches%benchStreams {
			n++
		}
		go func(c, n int) {
			for k := 0; k < n; k++ {
				p := payloads[c]
				if tracedEvery > 0 && k%tracedEvery == 0 {
					p = traced[c]
				}
				tier.pubs[c].Publish(tier.topics[c], p)
			}
		}(c, n)
	}
	for tier.stored() < total {
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(uint64(batches)*batchSize)/elapsed.Seconds(), "events/s")
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
			benchTierThroughput(b, 0, parts, nil, 0, time.Nanosecond)
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
