package bench

import (
	"testing"
	"time"

	"fsmonitor/internal/core"
	"fsmonitor/internal/dsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
)

// benchMonitor pushes b.N synthetic events through a full monitor —
// capture, resolution, store, delivery — and reports end-to-end events/s.
// mounted == false attaches the synthetic backend directly (the classic
// single-backend path); true routes it through a one-mount table, so the
// delta between the two variants is the mount layer's routing overhead
// (acceptance: < 5%).
func benchMonitor(b *testing.B, mounted bool) {
	var synth *emitDSI
	reg := dsi.NewRegistry()
	reg.Register("synthetic", func(i dsi.StorageInfo) int { return 1 },
		func(cfg dsi.Config) (dsi.DSI, error) {
			synth = &emitDSI{dsi.NewBase("synthetic", 4096)}
			synth.AddPump()
			return synth, nil
		})
	opts := core.Options{
		Registry: reg,
		Store:    eventstore.Options{MaxEvents: 1 << 16},
	}
	if mounted {
		opts.Mounts = []core.MountSpec{{Prefix: "/m", DSIName: "synthetic"}}
	} else {
		opts.DSIName = "synthetic"
	}
	m, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	// Store appends mark the end of the reliable path (subscription
	// delivery is lossy for lagging clients and benchmarked separately),
	// so completion is "every event persisted", as in benchAggregator.
	paths := []string{"/a.txt", "/dir/b.txt", "/dir/sub/c.log", "/deep/x/y/z/d.dat"}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	go func() {
		for i := 0; i < b.N; i++ {
			synth.Emit(events.Event{Root: "/", Op: events.OpModify, Path: paths[i%len(paths)]})
		}
	}()
	for m.Stats().Interface.Store.Appended < uint64(b.N) {
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "events/s")
	if st := m.Stats(); st.DSIDropped != 0 {
		b.Fatalf("dropped %d events", st.DSIDropped)
	}
}

type emitDSI struct{ *dsi.Base }

func (d *emitDSI) Close() error {
	d.PumpDone()
	d.CloseBase()
	return nil
}

// BenchmarkMonitorThroughputDirect is the bench-mount baseline: the
// synthetic backend feeds the resolution layer with no table between.
func BenchmarkMonitorThroughputDirect(b *testing.B) {
	benchMonitor(b, false)
}

// BenchmarkMonitorThroughputMounted runs the identical stream through a
// one-mount table ("/m"); ns/op against the Direct variant is the routing
// overhead of the mount-composed namespace.
func BenchmarkMonitorThroughputMounted(b *testing.B) {
	benchMonitor(b, true)
}
