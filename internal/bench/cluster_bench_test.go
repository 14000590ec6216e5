package bench

import (
	"fmt"
	"testing"
	"time"

	"fsmonitor/internal/telemetry"
)

// benchCluster drives a clustered aggregation tier of the given member
// count over 4 partitions through the shared harness
// (benchTierThroughput): batches are routed straight to each partition
// owner's inbox topic.
func benchCluster(b *testing.B, nodes int, reg *telemetry.Registry) {
	benchTierThroughput(b, nodes, 4, reg, 0, 2*time.Microsecond)
}

// BenchmarkClusterThroughput measures aggregate store throughput of the
// clustered aggregation tier at 1, 2, and 4 members over 4 partitions. Four
// synthetic routed streams (one per partition) publish pre-marshaled
// 512-event batches directly at each partition owner's inbox topic. The
// accounted per-event aggregation cost (2µs) is paced per store lane, as
// in the classic aggregator, and the lane count is the partition count
// however many members share the lanes — so the model's ceiling is the
// same 4 lanes / 2µs = 2M events/s at every member count. One aggregator
// has a single dispatcher in front of its lanes, which serializes them when
// the intake queue holds long single-partition runs (the classic bench
// shows the same at partitions=4), so in practice members add intake
// pipelines and four of them reach the ceiling. The Makefile's
// bench-cluster comment states the acceptance figures.
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
