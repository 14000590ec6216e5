// Command fsmon is FSMonitor's command-line monitor — the inotifywait
// analogue with FSMonitor's standardized output, working against any DSI.
//
// Watch a real directory (inotify on Linux, polling elsewhere):
//
//	fsmon /data
//	fsmon -recursive -ops CREATE,DELETE /data
//	fsmon -format fsevents /data
//
// Watch a simulated Lustre cluster driven by a built-in demo workload:
//
//	fsmon -lustre iota -demo
//
// Compose several backends into one namespace with repeatable -mount
// flags, or inspect the DSI registry:
//
//	fsmon -mount /logs=local:/var/log -mount /obj=object:/
//	fsmon -list-backends
//
// Print an event-store journal (a binary file; see DESIGN.md §3h):
//
//	fsmon -dump-journal /var/lib/fsmon/journal.p0
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fsmonitor"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/workload"
)

// mountList collects repeatable -mount flags ("/prefix=backend:root").
type mountList []string

func (m *mountList) String() string { return strings.Join(*m, ",") }

func (m *mountList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want /prefix=backend:root, got %q", v)
	}
	*m = append(*m, v)
	return nil
}

// parseMount turns "/prefix=backend:root" into a WithMount option. backend
// is an fstype shorthand (local, object) or a registered DSI name; root is
// the backend-local path (default "/"). An object mount gets a fresh
// in-memory bucket.
func parseMount(spec string, recursive bool) (fsmonitor.Option, error) {
	prefix, rest, _ := strings.Cut(spec, "=")
	backend, root, ok := strings.Cut(rest, ":")
	if !ok {
		root = "/"
	}
	if prefix == "" || backend == "" {
		return nil, fmt.Errorf("want /prefix=backend:root, got %q", spec)
	}
	var mopts []fsmonitor.MountOption
	if recursive {
		mopts = append(mopts, fsmonitor.MountRecursive())
	}
	info := fsmonitor.StorageInfo{Platform: runtime.GOOS, FSType: "local", Root: root}
	switch backend {
	case "local":
		// Registry auto-selects the native watcher for this host.
	case "object":
		info = fsmonitor.StorageInfo{FSType: "object", Root: root}
		mopts = append(mopts, fsmonitor.MountBackend(fsmonitor.NewObjectBucket()))
	default:
		mopts = append(mopts, fsmonitor.MountDSI(backend))
	}
	return fsmonitor.WithMount(prefix, info, mopts...), nil
}

func main() {
	recursive := flag.Bool("recursive", false, "monitor the whole subtree (FSMonitor's filtering-rule recursion)")
	ops := flag.String("ops", "", "comma-separated event mask, e.g. CREATE,MODIFY,DELETE (default: all)")
	format := flag.String("format", "standard", "output representation: standard, inotify, kqueue, fsevents, fsw, lustre")
	backend := flag.String("dsi", "", "force a DSI backend by name (default: auto-select)")
	lustreBed := flag.String("lustre", "", "monitor a simulated Lustre testbed instead of a path: aws, thor, or iota")
	cache := flag.Int("cache", 0, "Lustre fid2path cache size (0 = paper default 5000, negative = disabled)")
	partitions := flag.Int("partitions", 0, "with -lustre: aggregation-tier store partitions (0 = 1, the paper's single store)")
	clusterNodes := flag.Int("cluster-nodes", 0, "with -lustre: deploy the aggregation tier as this many routed aggregator nodes (0 = single aggregator)")
	clusterJoin := flag.String("cluster-join", "", "with -lustre: comma-separated events addresses of an existing aggregation cluster's members to join through")
	clusterListen := flag.String("cluster-listen", "", "with -lustre: first node's publisher bind for external subscribers, e.g. tcp://0.0.0.0:7400")
	clusterPrefix := flag.String("cluster-node-prefix", "", "with -lustre: member-ID prefix for the deployed cluster nodes (default: \"n\" founding, host+pid when joining)")
	clusterAdvertise := flag.String("cluster-advertise", "", "with -lustre: externally reachable host advertised for cluster addresses bound on a wildcard host")
	demo := flag.Bool("demo", false, "with -lustre: run the Evaluate_Output_Script workload and exit")
	stats := flag.Bool("stats", false, "print layer statistics on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry at this address (/metrics, /metrics/history, /metrics/prom, /traces, /healthz, /debug/incidents, /debug/pprof)")
	status := flag.String("status", "", "fetch a running monitor's telemetry snapshot and health verdict from this address and exit")
	incidentDir := flag.String("incident-dir", "", "arm the incident flight recorder: watchdog trips capture diagnostic bundles into this directory (implies telemetry)")
	incidentRetain := flag.Int("incident-retain", 0, "with -incident-dir: keep at most N bundles, oldest pruned first (0 = default 8)")
	incident := flag.String("incident", "", "trigger an incident capture on a running monitor at this address, print the bundle JSON, and exit")
	metricsHistory := flag.Int("metrics-history", 0, "retained telemetry samples backing /metrics/history, the watchdog, and incident bundles (0 = default 256)")
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N events end-to-end across every tier (0 = off, 1 = every event)")
	traceOut := flag.String("trace-out", "", "with -trace-sample: write completed span traces as Chrome trace_event JSON to this file on exit")
	verbose := flag.Bool("verbose", false, "log component diagnostics (structured, to stderr)")
	var mounts mountList
	flag.Var(&mounts, "mount", "mount a backend into the namespace as /prefix=backend:root (repeatable; backend: local, object, or a DSI name)")
	listBackends := flag.Bool("list-backends", false, "print registered DSI backends with their selection scores and exit")
	dump := flag.String("dump-journal", "", "print an event-store journal file — one line per event (seq, then the -format representation), acks as \"reported <seq>\" — and exit")
	flag.Parse()

	if *dump != "" {
		if err := dumpJournal(os.Stdout, *dump, fsmonitor.Format(*format)); err != nil {
			fatal(err)
		}
		return
	}

	if *listBackends {
		info := fsmonitor.StorageInfo{Platform: runtime.GOOS, FSType: "local", Root: "/"}
		if *lustreBed != "" {
			info.FSType = "lustre"
		}
		if flag.NArg() == 1 {
			info.Root = flag.Arg(0)
		}
		fmt.Printf("backends for platform=%s fstype=%s:\n", info.Platform, info.FSType)
		for _, s := range fsmonitor.Registry().Scores(info) {
			marker := " "
			if s.Score > 0 {
				marker = "*"
			}
			fmt.Printf("  %s %-16s score=%d\n", marker, s.Name, s.Score)
		}
		return
	}

	if *status != "" {
		base := *status
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		base = strings.TrimSuffix(base, "/")
		base = strings.TrimSuffix(base, "/metrics")
		snap, err := fsmonitor.FetchTelemetry(base + "/metrics")
		if err != nil {
			fatal(err)
		}
		if err := fsmonitor.WriteTelemetryText(os.Stdout, snap); err != nil {
			fatal(err)
		}
		// The health verdict rides along: one -status call answers both
		// "what are the numbers" and "is it healthy".
		if rep, ok, err := fsmonitor.FetchTelemetryHealth(base + "/healthz"); err == nil {
			fmt.Printf("health: %s", rep.Status)
			if !ok {
				fmt.Print(" (endpoint reports 503)")
			}
			fmt.Println()
			for _, t := range rep.Tiers {
				if len(t.Reasons) > 0 {
					fmt.Printf("  %s: %s (%s)\n", t.Tier, t.Status, strings.Join(t.Reasons, "; "))
				}
			}
		}
		// Clustered monitors additionally serve the federated rollup: a
		// per-member health table instead of only this process's numbers.
		// Non-clustered endpoints answer 404 and the section is skipped.
		if rep, ok, err := fsmonitor.FetchClusterHealth(base + "/cluster/healthz"); err == nil {
			fmt.Printf("cluster: %s", rep.Status)
			if !ok {
				fmt.Print(" (endpoint reports 503)")
			}
			fmt.Println()
			fmt.Printf("  %-16s %-6s %-12s %-14s %s\n", "NODE", "EPOCH", "PARTITIONS", "HEARTBEAT-AGE", "VERDICT")
			for _, mb := range rep.Members {
				verdict := mb.Status.String()
				if mb.Dead {
					verdict = fmt.Sprintf("dead (silent %.0fms)", mb.SnapshotAgeMS)
				}
				fmt.Printf("  %-16s %-6d %-12d %-14s %s\n",
					mb.Node, mb.Epoch, len(mb.Partitions),
					fmt.Sprintf("%.0fms", mb.HeartbeatAgeMS), verdict)
			}
		}
		return
	}

	if *incident != "" {
		base := *incident
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		base = strings.TrimSuffix(base, "/")
		bundle, err := fsmonitor.TriggerRemoteIncident(base + "/debug/incidents/trigger")
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(bundle); err != nil {
			fatal(err)
		}
		return
	}

	var mask fsmonitor.Op
	if *ops != "" {
		m, err := events.ParseOp(strings.ToUpper(*ops))
		if err != nil {
			fatal(err)
		}
		mask = m
	}
	outFormat := fsmonitor.Format(*format)

	var common []fsmonitor.Option
	var reg *fsmonitor.Telemetry
	if *metricsAddr != "" || *stats || *traceSample > 0 || *incidentDir != "" {
		reg = fsmonitor.NewTelemetry()
		common = append(common, fsmonitor.WithTelemetry(reg))
	}
	var logger *slog.Logger
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr,
			&slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	if *incidentDir != "" {
		// Tee logs through the flight recorder's bounded ring before the
		// watchdog starts, so the transition warnings that precede a trip
		// land in the captured bundle (ring-only when not -verbose).
		logger = reg.EnableLogRing(0).Wrap(logger)
		common = append(common, fsmonitor.WithIncidentDir(*incidentDir))
		if *incidentRetain > 0 {
			common = append(common, fsmonitor.WithIncidentRetention(*incidentRetain))
		}
	}
	if logger != nil {
		common = append(common, fsmonitor.WithLogger(logger))
	}
	if *traceSample > 0 {
		// Tracing must be armed before the monitor is built so the trace
		// ring exists when collectors start; the effective rate itself is
		// re-read per batch (the flight recorder boosts it live during
		// incidents).
		fsmonitor.EnableTraceSampling(reg, *traceSample)
	}
	if reg != nil {
		// The self-monitoring loop: time-series sampling feeds the rate
		// views and the watchdog's per-tier health verdicts; with
		// -incident-dir, watchdog trips additionally capture bundles.
		watchdog := fsmonitor.StartTelemetryWatchdogWith(reg, fsmonitor.TelemetryHealthOptions{
			Logger:         logger,
			SamplerHistory: *metricsHistory,
		})
		defer watchdog.Close()
	}

	var (
		m       *fsmonitor.Monitor
		err     error
		cluster *fsmonitor.LustreCluster
	)
	switch {
	case len(mounts) > 0:
		opts := append([]fsmonitor.Option{}, common...)
		for _, spec := range mounts {
			opt, perr := parseMount(spec, *recursive)
			if perr != nil {
				fatal(perr)
			}
			opts = append(opts, opt)
		}
		if *backend != "" {
			fatal(fmt.Errorf("-dsi conflicts with -mount; pin per-mount backends in the mount spec"))
		}
		m, err = fsmonitor.Compose(opts...)
	case *lustreBed != "":
		var cfg lustre.Config
		switch strings.ToLower(*lustreBed) {
		case "aws":
			cfg = lustre.AWSConfig()
		case "thor":
			cfg = lustre.ThorConfig()
		case "iota":
			cfg = lustre.IotaConfig()
		default:
			fatal(fmt.Errorf("unknown testbed %q (want aws, thor, or iota)", *lustreBed))
		}
		cfg.OpLatency = nil // interactive demo runs unpaced
		cluster = fsmonitor.NewLustreCluster(cfg)
		lopts := append([]fsmonitor.Option{}, common...)
		if *partitions > 0 {
			lopts = append(lopts, fsmonitor.WithStorePartitions(*partitions))
		}
		if *clusterNodes > 0 {
			lopts = append(lopts, fsmonitor.WithClusterNodes(*clusterNodes))
		}
		if *clusterJoin != "" {
			lopts = append(lopts, fsmonitor.WithClusterJoin(strings.Split(*clusterJoin, ",")...))
		}
		if *clusterListen != "" {
			lopts = append(lopts, fsmonitor.WithClusterListen(*clusterListen))
		}
		if *clusterPrefix != "" {
			lopts = append(lopts, fsmonitor.WithClusterNodePrefix(*clusterPrefix))
		}
		if *clusterAdvertise != "" {
			lopts = append(lopts, fsmonitor.WithClusterAdvertise(*clusterAdvertise))
		}
		m, err = fsmonitor.WatchLustre(cluster, "/mnt/lustre", *cache, lopts...)
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: fsmon [flags] <path>  (or -lustre <testbed>)")
			flag.PrintDefaults()
			os.Exit(2)
		}
		opts := append([]fsmonitor.Option{}, common...)
		if *recursive {
			opts = append(opts, fsmonitor.WithRecursive())
		}
		if *backend != "" {
			opts = append(opts, fsmonitor.WithDSI(*backend))
		}
		m, err = fsmonitor.Watch(flag.Arg(0), opts...)
	}
	if err != nil {
		fatal(err)
	}
	defer m.Close()
	if mts := m.Mounts(); len(mts) > 0 {
		fmt.Fprintf(os.Stderr, "fsmon: monitoring via %s DSI (mounts: %s)\n", m.DSIName(), strings.Join(mts, " "))
	} else {
		fmt.Fprintf(os.Stderr, "fsmon: monitoring via %s DSI\n", m.DSIName())
	}
	for _, cm := range m.ClusterMembers() {
		fmt.Fprintf(os.Stderr, "fsmon: cluster member %s: events (and join) %s, recovery %s\n",
			cm.ID, cm.Endpoint, cm.Recovery)
	}
	if *metricsAddr != "" {
		srv, err := fsmonitor.ServeTelemetry(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fsmon: telemetry at http://%s/metrics (query with fsmon -status %s)\n",
			srv.Addr(), srv.Addr())
	}

	filter := fsmonitor.Filter{Recursive: *recursive || *lustreBed != "" || len(mounts) > 0, Ops: mask}
	sub, err := m.Subscribe(filter, 0)
	if err != nil {
		fatal(err)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func(sub *fsmonitor.Subscription, stop <-chan struct{}) {
		defer close(done)
		for {
			select {
			case batch, ok := <-sub.C():
				if ok {
					for _, e := range batch {
						line, err := fsmonitor.Transform(e, outFormat)
						if err != nil {
							fmt.Fprintf(os.Stderr, "fsmon: %v\n", err)
							continue
						}
						fmt.Println(line)
					}
					continue
				}
				seq, evicted := sub.Evicted()
				if !evicted || stop == nil {
					return
				}
				fmt.Fprintf(os.Stderr, "fsmon: subscription evicted for lagging, resuming after seq %d\n", seq)
				var err error
				if sub, err = m.Subscribe(filter, seq); err != nil {
					fmt.Fprintf(os.Stderr, "fsmon: resubscribe: %v\n", err)
					return
				}
			case <-stop:
				sub.Close() // print what it holds, then end
				stop = nil
			}
		}
	}(sub, stop)

	if *demo && cluster != nil {
		cl := cluster.Client()
		target := workload.NewLustreTarget(cl)
		if err := cl.MkdirAll("/demo"); err != nil {
			fatal(err)
		}
		if err := workload.OutputScript(target, "/demo", 20*time.Millisecond); err != nil {
			fatal(err)
		}
		time.Sleep(500 * time.Millisecond)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	close(stop)
	<-done
	if *traceOut != "" {
		traces := fsmonitor.Traces(reg)
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := fsmonitor.WriteChromeTrace(f, traces); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fsmon: wrote %d span traces to %s (load in chrome://tracing)\n",
			len(traces), *traceOut)
	}
	if *stats {
		st := m.Stats()
		fmt.Fprintf(os.Stderr, "fsmon: dsi=%s dropped=%d processed=%d batches=%d stored=%d delivered=%d\n",
			st.DSI, st.DSIDropped, st.Resolution.Processed, st.Resolution.Batches,
			st.Interface.Store.Appended, st.Interface.Delivered)
		for _, ms := range st.Mounts {
			fmt.Fprintf(os.Stderr, "fsmon: mount %s backend=%s captured=%d shadowed=%d dropped=%d errors=%d attached=%v\n",
				ms.Prefix, ms.Backend, ms.Captured, ms.Shadowed, ms.Dropped, ms.Errors, ms.Attached)
		}
		if reg != nil {
			if err := fsmonitor.WriteTelemetryText(os.Stderr, reg.Snapshot()); err != nil {
				fatal(err)
			}
		}
	}
}

// dumpJournal prints the journal at path through the store's own record
// reader. Corruption is an error naming the byte offset; a torn tail — what
// a crash leaves, and what the store cuts off when it next opens the file —
// is noted on stderr after the records before it.
func dumpJournal(w io.Writer, path string, format fsmonitor.Format) error {
	out := bufio.NewWriter(w)
	var evs []events.Event
	torn, err := eventstore.ReadJournal(path, func(blk *events.Block, reported uint64) error {
		if blk == nil {
			_, err := fmt.Fprintf(out, "reported %d\n", reported)
			return err
		}
		evs = blk.AppendEventsTo(evs[:0])
		for _, e := range evs {
			line, err := fsmonitor.Transform(e, format)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(out, "%d %s\n", e.Seq, line); err != nil {
				return err
			}
		}
		return nil
	})
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err == nil && torn >= 0 {
		fmt.Fprintf(os.Stderr, "fsmon: %s: torn tail at byte offset %d\n", path, torn)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fsmon: %v\n", err)
	os.Exit(1)
}
