package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fsmonitor/internal/cluster"
	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/telemetry"
)

// benchCluster drives the clustered aggregation tier with pre-marshaled
// 512-event batches routed straight to each partition owner's inbox topic
// (the collector's routing decision, pre-computed); b.N counts events.
// Every node paces the accounted per-event aggregation cost on its own
// ingest throttle, so aggregate cluster throughput should scale with node
// count — the clustered analogue of BenchmarkAggregatorThroughput's
// partition scaling.
// reg, when non-nil, arms the full observability plane on every node:
// per-node gauges, the delivery-conservation audit on the store lanes,
// and federated snapshot publishing at heartbeat cadence.
func benchCluster(b *testing.B, nodes int, reg *telemetry.Registry) {
	const (
		parts     = 4
		batchSize = 512
	)
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	ep := fmt.Sprintf("inproc://bench-cl-%p", b)
	if err := pub.Bind(ep); err != nil {
		b.Fatal(err)
	}
	defer pub.Close()

	cl := make([]*cluster.Node, nodes)
	for i := range cl {
		var join []string
		if i > 0 {
			join = []string{cl[0].CtlEndpoint()}
		}
		n, err := cluster.NewNode(cluster.NodeOptions{
			ID:            fmt.Sprintf("n%d", i),
			Endpoint:      fmt.Sprintf("inproc://bench-cl-%p-n%d", b, i),
			Join:          join,
			Parts:         parts,
			EventOverhead: 2 * time.Microsecond,
			// Bounded retention: the bench measures store throughput, not
			// the retention window.
			Store:     eventstore.Options{MaxEvents: 1 << 16},
			Telemetry: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		if err := n.Start(); err != nil {
			b.Fatal(err)
		}
		cl[i] = n
	}
	for _, n := range cl {
		if err := n.Membership().WaitMembers(nodes, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	owner := make([]string, parts) // partition → owning node ID
	deadline := time.Now().Add(10 * time.Second)
	for {
		owned := 0
		for _, n := range cl {
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
	for _, n := range cl {
		if err := n.ConnectCollectors(ep); err != nil {
			b.Fatal(err)
		}
	}

	payloads := make([][]byte, parts)
	for p := range payloads {
		batch := make([]events.Event, batchSize)
		for j := range batch {
			batch[j] = events.Event{
				Root: "/mnt/lustre", Op: events.OpCreate,
				Path:   fmt.Sprintf("/bench/p%d/f%06d", p, j),
				Source: "bench",
			}
		}
		payloads[p] = eventstest.WireBatch(b, batch, 0, nil)
	}

	// Warm-up: one single-event batch per partition, republished until the
	// owner's subscription accepts it — the timed loop must not race the
	// nodes' connect handshake and silently drop its first batches.
	warm := eventstest.WireBatch(b, []events.Event{{
		Root: "/mnt/lustre", Op: events.OpCreate, Path: "/bench/warm", Source: "bench",
	}}, 0, nil)
	warmed := uint64(0)
	for p := 0; p < parts; p++ {
		topic := msgq.NodeTopic(owner[p], p)
		for {
			if pub.PublishCtx(context.Background(), topic, warm) > 0 {
				warmed++
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	batches := (b.N + batchSize - 1) / batchSize
	total := uint64(batches)*batchSize + warmed
	stored := func() uint64 {
		var s uint64
		for _, n := range cl {
			s += n.Stats().Stored
		}
		return s
	}
	for stored() < warmed {
		time.Sleep(200 * time.Microsecond)
	}

	b.ResetTimer()
	start := time.Now()
	for p := 0; p < parts; p++ {
		n := batches / parts
		if p < batches%parts {
			n++
		}
		go func(p, n int) {
			topic := msgq.NodeTopic(owner[p], p)
			for k := 0; k < n; k++ {
				pub.Publish(topic, payloads[p])
			}
		}(p, n)
	}
	for stored() < total {
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(uint64(batches)*batchSize)/elapsed.Seconds(), "events/s")
}

// BenchmarkClusterThroughput measures aggregate store throughput of the
// clustered aggregation tier at 1, 2, and 4 nodes over 4 partitions. Four
// synthetic routed streams (one per partition) publish pre-marshaled
// 512-event batches directly at each partition owner's inbox topic. Each
// node paces the accounted per-event aggregation cost on its own ingest
// throttle (one serial aggregator per node, as in the paper), so the
// acceptance gate is aggregate events/s scaling >= 1.6x from 1 node to 2.
func BenchmarkClusterThroughput(b *testing.B) {
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchCluster(b, nodes, nil)
		})
	}
}

// BenchmarkClusterThroughputTelemetry re-runs the cluster bench with the
// observability plane armed — per-node gauges, the delivery-conservation
// audit counting every store append, and federated snapshots published
// at heartbeat cadence. The events/s delta against the bare variant is
// the enabled-plane overhead (acceptance: < 5%).
func BenchmarkClusterThroughputTelemetry(b *testing.B) {
	for _, nodes := range []int{1, 2} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchCluster(b, nodes, telemetry.NewRegistry())
		})
	}
}
