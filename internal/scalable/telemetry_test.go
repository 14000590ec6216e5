package scalable

import (
	"testing"
	"time"

	"fsmonitor/internal/iface"
	"fsmonitor/internal/telemetry"
)

// TestTelemetryEndToEnd deploys with a registry attached and checks that
// one snapshot covers the whole event path: collector stage latencies,
// aggregator store timing, per-partition store counters, consumer
// end-to-end latency, and the process gauges.
func TestTelemetryEndToEnd(t *testing.T) {
	cluster := testCluster(2)
	reg := telemetry.NewRegistry()
	m, err := Deploy(cluster, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		StorePartitions: 2,
		Telemetry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	cl := cluster.Client()
	for _, p := range []string{"/a.txt", "/b.txt", "/c.txt"} {
		if err := cl.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := drainConsumer(con, 300*time.Millisecond)
	if len(got) < 6 {
		t.Fatalf("delivered %d events, want >= 6", len(got))
	}

	snap := reg.Snapshot()
	hist := func(name string) telemetry.HistogramSnapshot {
		t.Helper()
		h, ok := snap[name].(telemetry.HistogramSnapshot)
		if !ok {
			t.Fatalf("%s missing or not a histogram: %#v", name, snap[name])
		}
		return h
	}
	gauge := func(name string) float64 {
		t.Helper()
		v, ok := snap[name].(float64)
		if !ok {
			t.Fatalf("%s missing or not a scalar: %#v", name, snap[name])
		}
		return v
	}

	// Collector tier: both MDTs mirrored (instruments present); the
	// workload may land on one MDT only, so activity is asserted in
	// aggregate.
	var resolved, published uint64
	for _, p := range []string{"fsmon.collector.mdt0", "fsmon.collector.mdt1"} {
		resolved += hist(p + ".resolve_us").Count
		published += hist(p + ".publish_us").Count
	}
	if resolved == 0 {
		t.Error("no collector recorded resolve_us")
	}
	if published == 0 {
		t.Error("no collector recorded publish_us")
	}
	if gauge("fsmon.collector.mdt0.events_published")+gauge("fsmon.collector.mdt1.events_published") < 6 {
		t.Error("collectors published fewer events than delivered")
	}

	// Aggregation tier: local store latency plus the cumulative trace.
	if h := hist("fsmon.aggregator.store_us"); h.Count == 0 {
		t.Error("aggregator.store_us recorded nothing")
	}
	capToStore := hist("fsmon.aggregator.capture_to_store_us")
	if capToStore.Count == 0 {
		t.Error("capture_to_store_us recorded nothing — stamps not reaching the aggregator")
	}

	// Sharded store: both partitions mirrored, appends split across them.
	// The partition count is the engine's, so the store's gauge is the one.
	if gauge("fsmon.store.partitions") != 2 {
		t.Errorf("store.partitions = %v", snap["fsmon.store.partitions"])
	}
	if gauge("fsmon.store.p0.appended")+gauge("fsmon.store.p1.appended") < 6 {
		t.Error("per-partition appended counts don't cover the workload")
	}

	// Consumer: one e2e observation per delivered traced event, and the
	// capture→deliver latency must dominate capture→store.
	e2e := hist("fsmon.consumer.e2e_us")
	if e2e.Count != uint64(len(got)) {
		t.Errorf("e2e_us count = %d, want %d (one per delivered event)", e2e.Count, len(got))
	}
	if gauge("fsmon.consumer.delivered") != float64(len(got)) {
		t.Errorf("consumer.delivered = %v, want %d", snap["fsmon.consumer.delivered"], len(got))
	}
	if _, ok := snap["fsmon.consumer.lag_us"]; !ok {
		t.Error("consumer.lag_us not registered")
	}
	for _, p := range []string{"fsmon.consumer.cursor_lag.p0", "fsmon.consumer.cursor_lag.p1"} {
		if v := gauge(p); v != 0 {
			t.Errorf("%s = %v after full drain, want 0", p, v)
		}
	}

	// Process gauges ride along.
	if gauge("fsmon.process.heap_bytes") <= 0 {
		t.Error("process.heap_bytes not sampled")
	}
	if gauge("fsmon.process.goroutines") <= 0 {
		t.Error("process.goroutines not sampled")
	}
}

// TestStampSurvivesRepublish checks the tracing invariant the consumer
// metrics depend on: batch capture stamps set by the collector (armed by
// the attached registry) arrive intact at the consumer across the
// aggregator's decode/re-encode cycle at every partition count, so every
// delivered event lands one observation in the end-to-end histogram.
func TestStampSurvivesRepublish(t *testing.T) {
	for _, parts := range []int{1, 2} {
		cluster := testCluster(1)
		reg := telemetry.NewRegistry()
		m, err := Deploy(cluster, DeployOptions{
			CacheSize:       100,
			PollInterval:    time.Millisecond,
			StorePartitions: parts,
			Telemetry:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		cl := cluster.Client()
		for _, p := range []string{"/x.txt", "/y.txt"} {
			if err := cl.Create(p); err != nil {
				t.Fatal(err)
			}
		}
		got := drainConsumer(con, 300*time.Millisecond)
		if len(got) != 2 {
			t.Fatalf("parts=%d: delivered %d events, want 2", parts, len(got))
		}
		e2e, ok := reg.Snapshot()["fsmon.consumer.e2e_us"].(telemetry.HistogramSnapshot)
		if !ok {
			t.Fatalf("parts=%d: e2e_us missing from snapshot", parts)
		}
		if e2e.Count != uint64(len(got)) {
			t.Errorf("parts=%d: e2e_us count = %d, want %d — stamps lost or mangled in transit",
				parts, e2e.Count, len(got))
		}
		if window := time.Since(start).Microseconds(); e2e.Max > window {
			t.Errorf("parts=%d: e2e max %vus exceeds the test window %vus", parts, e2e.Max, window)
		}
		con.Close()
		m.Close()
	}
}

// TestConsumerLagGauge: after deliveries the lag gauge holds the age of
// the newest delivered event — a small positive wall-clock distance.
func TestConsumerLagGauge(t *testing.T) {
	cluster := testCluster(1)
	reg := telemetry.NewRegistry()
	m, err := Deploy(cluster, DeployOptions{
		CacheSize:    100,
		PollInterval: time.Millisecond,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	if err := cluster.Client().Create("/lag.txt"); err != nil {
		t.Fatal(err)
	}
	if got := drainConsumer(con, 300*time.Millisecond); len(got) != 1 {
		t.Fatalf("delivered %d events, want 1", len(got))
	}
	lag, ok := reg.Snapshot()["fsmon.consumer.lag_us"].(float64)
	if !ok {
		t.Fatal("lag_us missing")
	}
	if lag < 0 || lag > 60e6 {
		t.Errorf("lag_us = %v, want small positive age", lag)
	}
}
