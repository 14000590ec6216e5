// Benchmark harness entry points: one testing.B per paper table (II–IX
// plus the §V-D5 Robinhood comparison), each delegating to the
// internal/bench driver that regenerates the table, plus microbenchmarks
// of the hot pipeline paths and ablation benches for the design choices
// DESIGN.md §4 calls out.
//
// Table benches run the Quick workload profile so `go test -bench=.`
// completes in minutes; `cmd/fsmon-bench` runs the full profile.
package fsmonitor_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fsmonitor"
	"fsmonitor/internal/bench"
	"fsmonitor/internal/events"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/resolution"
	"fsmonitor/internal/scalable"
	"fsmonitor/internal/workload"
)

func runTable(b *testing.B, id string) {
	b.Helper()
	opts := bench.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		t, err := bench.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			t.Fprint(benchWriter{b})
		}
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// BenchmarkTable2OutputAnalysis regenerates Table II (standardized event
// definitions across platforms).
func BenchmarkTable2OutputAnalysis(b *testing.B) { runTable(b, "table2") }

// BenchmarkTable3ReportingRate regenerates Table III (local reporting
// rates vs FSWatch/inotifywait).
func BenchmarkTable3ReportingRate(b *testing.B) { runTable(b, "table3") }

// BenchmarkTable4LocalResources regenerates Table IV (local CPU/memory).
func BenchmarkTable4LocalResources(b *testing.B) { runTable(b, "table4") }

// BenchmarkTable5GenerationRate regenerates Table V (baseline generation
// rates on AWS/Thor/Iota).
func BenchmarkTable5GenerationRate(b *testing.B) { runTable(b, "table5") }

// BenchmarkTable6CacheEffect regenerates Table VI (reporting rates with
// and without the fid2path cache).
func BenchmarkTable6CacheEffect(b *testing.B) { runTable(b, "table6") }

// BenchmarkTable7ScalableResources regenerates Table VII (per-component
// resource utilization).
func BenchmarkTable7ScalableResources(b *testing.B) { runTable(b, "table7") }

// BenchmarkTable8CacheSweep regenerates Table VIII (cache-size sweep).
func BenchmarkTable8CacheSweep(b *testing.B) { runTable(b, "table8") }

// BenchmarkTable9Applications regenerates Table IX (IOR + HACC-I/O +
// Filebench).
func BenchmarkTable9Applications(b *testing.B) { runTable(b, "table9") }

// BenchmarkRobinhoodComparison regenerates the §V-D5 comparison.
func BenchmarkRobinhoodComparison(b *testing.B) { runTable(b, "robinhood") }

// BenchmarkLocalPipeline measures the end-to-end local pipeline (simulated
// inotify → resolution → store → subscriber) in events per second,
// unpaced.
func BenchmarkLocalPipeline(b *testing.B) {
	fs := fsmonitor.NewSimFS()
	if err := fs.Mkdir("/w"); err != nil {
		b.Fatal(err)
	}
	m, err := fsmonitor.WatchSim(fs, "sim-linux", "/w", fsmonitor.WithRecursive())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	sub, err := m.Subscribe(fsmonitor.Filter{Recursive: true}, 0)
	if err != nil {
		b.Fatal(err)
	}
	got := 0
	done := make(chan struct{})
	want := b.N * 3 // create+modify+close per file
	go func() {
		// The simulated inotify queue may overflow at unpaced rates
		// (that is its native behaviour), so the drain also exits when
		// the stream goes quiet instead of insisting on every event.
		defer close(done)
		for {
			select {
			case batch, ok := <-sub.C():
				if !ok {
					return
				}
				got += len(batch)
				if got >= want {
					return
				}
			case <-time.After(2 * time.Second):
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/w/f%d", i), 1); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(got)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkScalablePipeline measures the unpaced Lustre pipeline
// (changelog → collector → aggregator → consumer).
func BenchmarkScalablePipeline(b *testing.B) {
	cluster := lustre.NewCluster(lustre.Config{NumMDS: 2, NumOSS: 2, OSTsPerOSS: 2, OSTSizeGB: 10})
	mon, err := scalable.Deploy(cluster, scalable.DeployOptions{CacheSize: 5000, PollInterval: 100 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer mon.Close()
	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer con.Close()
	cl := cluster.Client()
	done := make(chan struct{})
	got := 0
	go func() {
		defer close(done)
		for {
			select {
			case batch, ok := <-con.C():
				if !ok {
					return
				}
				got += len(batch)
				if got >= b.N {
					return
				}
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(got)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEventCodec measures the wire codec on the batch path.
func BenchmarkEventCodec(b *testing.B) {
	batch := make([]events.Event, 256)
	for i := range batch {
		batch[i] = events.Event{
			Root: "/mnt/lustre", Op: events.OpCreate,
			Path: fmt.Sprintf("/perf/w0/hello%d.txt", i),
			Time: time.Unix(1, 0), Seq: uint64(i), Source: "lustre",
		}
	}
	enc, dec := events.NewBlock(len(batch), 0), events.NewBlock(len(batch), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		for _, e := range batch {
			if err := enc.AppendEvent(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := events.DecodeBlockInto(dec, enc.Wire()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBatchSize sweeps the collector's Changelog read batch
// (the paper batches events per §IV-2; this quantifies why).
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, size := range []int{1, 16, 128, 512} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			cluster := lustre.NewCluster(lustre.Config{NumMDS: 1, NumOSS: 1, OSTsPerOSS: 1, OSTSizeGB: 10})
			mon, err := scalable.Deploy(cluster, scalable.DeployOptions{
				CacheSize: 5000, BatchSize: size, PollInterval: 100 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer con.Close()
			cl := cluster.Client()
			done := make(chan struct{})
			got := 0
			go func() {
				defer close(done)
				for {
					select {
					case batch, ok := <-con.C():
						if !ok {
							return
						}
						got += len(batch)
						if got >= b.N {
							return
						}
					case <-time.After(5 * time.Second):
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			<-done
			b.StopTimer()
			b.ReportMetric(float64(got)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkAblationTransport compares the in-process and TCP message-queue
// transports for the same deployment.
func BenchmarkAblationTransport(b *testing.B) {
	for _, transport := range []string{"inproc", "tcp"} {
		b.Run(transport, func(b *testing.B) {
			cluster := lustre.NewCluster(lustre.Config{NumMDS: 1, NumOSS: 1, OSTsPerOSS: 1, OSTSizeGB: 10})
			mon, err := scalable.Deploy(cluster, scalable.DeployOptions{
				CacheSize: 5000, Transport: transport, PollInterval: 100 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer con.Close()
			cl := cluster.Client()
			done := make(chan struct{})
			got := 0
			go func() {
				defer close(done)
				for {
					select {
					case batch, ok := <-con.C():
						if !ok {
							return
						}
						got += len(batch)
						if got >= b.N {
							return
						}
					case <-time.After(5 * time.Second):
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			<-done
			b.StopTimer()
			b.ReportMetric(float64(got)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkAblationConsumerFiltering quantifies §IV-2's choice to filter
// at the consumer rather than the aggregator: many consumers with
// disjoint filters share one unfiltered aggregator stream.
func BenchmarkAblationConsumerFiltering(b *testing.B) {
	for _, consumers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("consumers%d", consumers), func(b *testing.B) {
			cluster := lustre.NewCluster(lustre.Config{NumMDS: 1, NumOSS: 1, OSTsPerOSS: 1, OSTSizeGB: 10})
			mon, err := scalable.Deploy(cluster, scalable.DeployOptions{CacheSize: 5000, PollInterval: 100 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			cl := cluster.Client()
			if err := cl.Mkdir("/keep"); err != nil {
				b.Fatal(err)
			}
			dones := make([]chan struct{}, consumers)
			for c := 0; c < consumers; c++ {
				con, err := mon.NewConsumer(iface.Filter{Under: "/keep", Recursive: true}, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer con.Close()
				done := make(chan struct{})
				dones[c] = done
				go func(con *scalable.Consumer, done chan struct{}) {
					defer close(done)
					got := 0
					for {
						select {
						case batch, ok := <-con.C():
							if !ok {
								return
							}
							got += len(batch)
							if got >= b.N {
								return
							}
						case <-time.After(5 * time.Second):
							return
						}
					}
				}(con, done)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Create(fmt.Sprintf("/keep/f%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			for _, d := range dones {
				<-d
			}
		})
	}
}

// BenchmarkAblationRenamePairing measures the resolution layer's rename
// pairing cost on the local pipeline.
func BenchmarkAblationRenamePairing(b *testing.B) {
	for _, pairing := range []bool{true, false} {
		name := "paired"
		if !pairing {
			name = "unpaired"
		}
		b.Run(name, func(b *testing.B) {
			src := make(chan events.Event, 1024)
			proc := resolution.NewWithOptions(src, resolution.Options{
				BatchSize: 256, BatchInterval: time.Millisecond, PairRenames: pairing,
			})
			defer proc.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				n := 0
				for {
					select {
					case batch, ok := <-proc.Batches():
						if !ok {
							return
						}
						n += len(batch)
						if n >= b.N*2 {
							return
						}
					case <-time.After(5 * time.Second):
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ck := uint32(i + 1)
				src <- events.Event{Root: "/r", Op: events.OpMovedFrom, Path: "/a", Cookie: ck}
				src <- events.Event{Root: "/r", Op: events.OpMovedTo, Path: "/b", Cookie: ck}
			}
			close(src)
			<-done
		})
	}
}

// BenchmarkMsgqPubSub measures raw message-queue throughput over TCP.
func BenchmarkMsgqPubSub(b *testing.B) {
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	sub := msgq.NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect(pub.Addr()); err != nil {
		b.Fatal(err)
	}
	if err := sub.WaitReady(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := 0
		for {
			select {
			case _, ok := <-sub.C():
				if !ok {
					return
				}
				n++
				if n >= b.N {
					return
				}
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Publish("t", payload)
	}
	<-done
}

// BenchmarkWorkloadGeneration measures raw unpaced event generation on the
// simulated cluster (the substrate's ceiling).
func BenchmarkWorkloadGeneration(b *testing.B) {
	cluster := lustre.NewCluster(lustre.Config{NumMDS: 1, NumOSS: 1, OSTsPerOSS: 1, OSTSizeGB: 100})
	target := workload.NewLustreTarget(cluster.Client())
	if _, err := workload.RunPerformanceScript(context.Background(), []workload.Target{target},
		workload.PerfOptions{Dir: "/warm", Iterations: 10}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	rep, err := workload.RunPerformanceScript(context.Background(), []workload.Target{target},
		workload.PerfOptions{Dir: "/bench", Iterations: b.N})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.EventsPerSec(), "events/s")
}
