package fsmonitor_test

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsmonitor"
	"fsmonitor/internal/core"
	"fsmonitor/internal/lustre"
)

func recvAll(t *testing.T, sub *fsmonitor.Subscription, want int, timeout time.Duration) []fsmonitor.Event {
	t.Helper()
	var out []fsmonitor.Event
	deadline := time.After(timeout)
	for len(out) < want {
		select {
		case b, ok := <-sub.C():
			if !ok {
				return out
			}
			out = append(out, b...)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestWatchRealDirectory(t *testing.T) {
	dir := t.TempDir()
	m, err := fsmonitor.Watch(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sub, err := m.Subscribe(fsmonitor.Filter{Ops: fsmonitor.OpCreate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "f.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, sub, 1, 2*time.Second)
	if len(got) == 0 || got[0].Path != "/f.txt" {
		t.Fatalf("events = %v", got)
	}
}

func TestWatchSimPlatforms(t *testing.T) {
	for _, platform := range []string{"sim-linux", "sim-darwin", "sim-bsd", "sim-windows"} {
		t.Run(platform, func(t *testing.T) {
			fs := fsmonitor.NewSimFS()
			if err := fs.Mkdir("/data"); err != nil {
				t.Fatal(err)
			}
			m, err := fsmonitor.WatchSim(fs, platform, "/data", fsmonitor.WithRecursive())
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			sub, err := m.Subscribe(fsmonitor.Filter{Ops: fsmonitor.OpCreate, Recursive: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/data/x", 1); err != nil {
				t.Fatal(err)
			}
			got := recvAll(t, sub, 1, 2*time.Second)
			if len(got) == 0 {
				t.Fatal("no events")
			}
			// Same standardized representation on every platform
			// (§V-C1: "FSMonitor gives the same event definitions").
			if got[0].String() != "/data CREATE /x" {
				t.Errorf("%s: %q", platform, got[0])
			}
		})
	}
}

func TestWatchLustreEndToEnd(t *testing.T) {
	cluster := fsmonitor.NewLustreCluster(fsmonitor.LustreConfig{NumMDS: 4})
	m, err := fsmonitor.WatchLustre(cluster, "/mnt/lustre", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.DSIName() != "lustre" {
		t.Errorf("DSI = %q", m.DSIName())
	}
	sub, err := m.Subscribe(fsmonitor.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Client()
	const n = 32
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("/d%d", i)
		if err := cl.Mkdir(d); err != nil {
			t.Fatal(err)
		}
		if err := cl.Create(d + "/f"); err != nil {
			t.Fatal(err)
		}
	}
	got := recvAll(t, sub, 2*n, 5*time.Second)
	if len(got) != 2*n {
		t.Fatalf("events = %d, want %d", len(got), 2*n)
	}
	for _, e := range got {
		if e.Root != "/mnt/lustre" {
			t.Errorf("root = %q", e.Root)
		}
	}
}

// A negative cacheSize disables the fid2path cache: every record pays one
// fid2path call for its FID, where the default cache pays one per FID.
func TestWatchLustreNoCache(t *testing.T) {
	const writes = 3
	for _, tc := range []struct{ cacheSize, wantCalls int }{{-1, 1 + writes}, {0, 1}} {
		cluster := fsmonitor.NewLustreCluster(fsmonitor.LustreConfig{NumMDS: 1})
		m, err := fsmonitor.WatchLustre(cluster, "/mnt/lustre", tc.cacheSize)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.Subscribe(fsmonitor.Filter{Recursive: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.Client()
		if err := cl.Create("/f"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < writes; i++ {
			if err := cl.Write("/f", 1); err != nil {
				t.Fatal(err)
			}
		}
		if got := recvAll(t, sub, 1+writes, 2*time.Second); len(got) != 1+writes {
			t.Fatalf("cacheSize %d: events = %v", tc.cacheSize, got)
		}
		m.Close()
		if got := cluster.Fid2PathCalls(); got != uint64(tc.wantCalls) {
			t.Errorf("cacheSize %d: %d fid2path calls for %d records of one FID, want %d", tc.cacheSize, got, 1+writes, tc.wantCalls)
		}
	}
}

func TestTransformFormats(t *testing.T) {
	e := fsmonitor.Event{Root: "/r", Op: fsmonitor.OpCreate, Path: "/f"}
	for _, f := range []fsmonitor.Format{
		fsmonitor.FormatStandard, fsmonitor.FormatInotify, fsmonitor.FormatKqueue,
		fsmonitor.FormatFSEvents, fsmonitor.FormatFSW, fsmonitor.FormatLustre,
	} {
		s, err := fsmonitor.Transform(e, f)
		if err != nil || s == "" {
			t.Errorf("Transform(%s) = %q, %v", f, s, err)
		}
	}
}

func TestEventsSinceAcrossRestartViaJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "events.journal")
	fs := fsmonitor.NewSimFS()
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	m, err := fsmonitor.WatchSim(fs, "sim-linux", "/d", fsmonitor.WithJournal(journal))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/f", 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if evs, _ := m.Since(0, 0); len(evs) >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	m.Close()
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal not written: %v", err)
	}
}

func TestStatsSurface(t *testing.T) {
	fs := fsmonitor.NewSimFS()
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	m, err := fsmonitor.WatchSim(fs, "sim-linux", "/d")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := fs.WriteFile("/d/f", 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := m.Stats(); st.Resolution.Processed >= 3 && st.Interface.Store.Appended >= 3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("stats = %+v", m.Stats())
}

func TestTestbedPresetsExposed(t *testing.T) {
	for _, cfg := range lustre.Testbeds() {
		c := fsmonitor.NewLustreCluster(cfg)
		if c.NumMDS() < 1 {
			t.Errorf("%s: no MDS", cfg.Name)
		}
	}
}

// The paper's central claim: the same script produces the same
// standardized event definitions whether the storage is a local
// filesystem or a distributed Lustre store ("works seamlessly for both
// local and distributed file systems", §VII).
func TestUniformEventsLocalVsLustre(t *testing.T) {
	runScript := func(m *fsmonitor.Monitor, create func(string) error, write func(string) error,
		rename func(string, string) error, unlink func(string) error) []string {
		t.Helper()
		sub, err := m.Subscribe(fsmonitor.Filter{
			Recursive: true,
			Ops: fsmonitor.OpCreate | fsmonitor.OpModify | fsmonitor.OpDelete |
				fsmonitor.OpMovedFrom | fsmonitor.OpMovedTo,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		step := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(30 * time.Millisecond)
		}
		step(create("/w/hello.txt"))
		step(write("/w/hello.txt"))
		step(rename("/w/hello.txt", "/w/hi.txt"))
		step(unlink("/w/hi.txt"))
		var lines []string
		deadline := time.After(2 * time.Second)
		for len(lines) < 5 {
			select {
			case b := <-sub.C():
				for _, e := range b {
					if e.IsDir() {
						continue // setup mkdirs differ between the two runs
					}
					// Strip the root so local and Lustre renderings compare.
					lines = append(lines, e.Op.String()+" "+e.Path)
				}
			case <-deadline:
				return lines
			}
		}
		return lines
	}

	fs := fsmonitor.NewSimFS()
	if err := fs.Mkdir("/w"); err != nil {
		t.Fatal(err)
	}
	lm, err := fsmonitor.WatchSim(fs, "sim-linux", "/", fsmonitor.WithRecursive())
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	local := runScript(lm,
		func(p string) error {
			h, err := fs.Create(p)
			if err != nil {
				return err
			}
			return h.Close()
		},
		func(p string) error {
			h, err := fs.Open(p, true)
			if err != nil {
				return err
			}
			if err := h.Write(1); err != nil {
				return err
			}
			return h.Close()
		},
		fs.Rename, fs.Remove)

	cluster := fsmonitor.NewLustreCluster(fsmonitor.LustreConfig{NumMDS: 2})
	dm, err := fsmonitor.WatchLustre(cluster, "/", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	cl := cluster.Client()
	if err := cl.Mkdir("/w"); err != nil {
		t.Fatal(err)
	}
	distributed := runScript(dm,
		cl.Create,
		func(p string) error { return cl.Write(p, 1) },
		cl.Rename, cl.Unlink)

	want := []string{
		"CREATE /w/hello.txt",
		"MODIFY /w/hello.txt",
		"MOVED_FROM /w/hello.txt",
		"MOVED_TO /w/hi.txt",
		"DELETE /w/hi.txt",
	}
	check := func(name string, got []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: lines = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s line %d = %q, want %q", name, i, got[i], want[i])
			}
		}
	}
	check("local", local)
	check("lustre", distributed)
}

func TestWatchSpectrumEndToEnd(t *testing.T) {
	cluster, err := fsmonitor.NewSpectrumCluster(fsmonitor.SpectrumConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	m, err := fsmonitor.WatchSpectrum(cluster, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.DSIName() != "spectrum" {
		t.Errorf("DSI = %q", m.DSIName())
	}
	sub, err := m.Subscribe(fsmonitor.Filter{Recursive: true, Ops: fsmonitor.OpCreate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Create("/audited.txt"); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, sub, 1, 2*time.Second)
	if len(got) == 0 || got[0].Path != "/audited.txt" {
		t.Fatalf("events = %v", got)
	}
	if got[0].Root != "/gpfs/gpfs0" {
		t.Errorf("root = %q", got[0].Root)
	}
}

func TestOptionsExercised(t *testing.T) {
	fs := fsmonitor.NewSimFS()
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// WithPlatform + WithDSI + WithStoreBound + WithBatch together.
	m, err := fsmonitor.WatchSim(fs, "sim-linux", "/d",
		fsmonitor.WithDSI("sim-fsevents"), // explicit pin overrides platform selection
		fsmonitor.WithPlatform("ignored-when-pinned"),
		fsmonitor.WithStoreBound(5),
		fsmonitor.WithBatch(4),
		fsmonitor.WithRecursive(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.DSIName() != "sim-fsevents" {
		t.Errorf("DSI = %q", m.DSIName())
	}
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/d/f%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := m.Stats(); st.Interface.Store.Appended >= 10 {
			// The bounded store never holds more than 5 events.
			evs, err := m.Since(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) > 5 {
				t.Errorf("store holds %d events, bound 5", len(evs))
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("events never stored")
}

func TestRegistryExposed(t *testing.T) {
	reg := fsmonitor.Registry()
	names := reg.Names()
	want := map[string]bool{"inotify": false, "poll": false, "sim-inotify": false, "lustre": false, "spectrum": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("registry missing %q: %v", n, names)
		}
	}
}

// TestTelemetryPublicAPI drives the WithTelemetry/WithLogger/ServeTelemetry
// surface end to end: a Lustre monitor mirrors every tier into one
// registry, the registry serves over HTTP, and the fetched snapshot
// renders as text — the fsmon -metrics-addr / -status path.
func TestTelemetryPublicAPI(t *testing.T) {
	var logBuf strings.Builder
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	reg := fsmonitor.NewTelemetry()
	cluster := fsmonitor.NewLustreCluster(fsmonitor.LustreConfig{NumMDS: 2})
	m, err := fsmonitor.WatchLustre(cluster, "/mnt/lustre", 0,
		fsmonitor.WithTelemetry(reg), fsmonitor.WithLogger(logger))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sub, err := m.Subscribe(fsmonitor.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Client()
	for i := 0; i < 8; i++ {
		if err := cl.Create(fmt.Sprintf("/t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvAll(t, sub, 8, 5*time.Second); len(got) != 8 {
		t.Fatalf("events = %d, want 8", len(got))
	}

	snap := reg.Snapshot()
	// One registry spans the deployment tiers and the local layers.
	for _, name := range []string{
		"fsmon.collector.mdt0.events_published",
		"fsmon.aggregator.stored",
		"fsmon.store.p0.appended",
		"fsmon.consumer.delivered",
		"fsmon.core.store.appended",
		"fsmon.core.iface.delivered",
		"fsmon.process.heap_bytes",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
	if v, _ := snap["fsmon.core.iface.delivered"].(float64); v < 8 {
		t.Errorf("core.iface.delivered = %v, want >= 8", snap["fsmon.core.iface.delivered"])
	}

	// Structured component logs flowed to the supplied logger.
	if !strings.Contains(logBuf.String(), "component=") {
		t.Errorf("logger saw no component-tagged records:\n%s", logBuf.String())
	}

	// Serve → fetch → text-render round trip.
	srv, err := fsmonitor.ServeTelemetry("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fetched, err := fsmonitor.FetchTelemetry("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fsmonitor.WriteTelemetryText(&sb, fetched); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fsmon.consumer.e2e_us count=") {
		t.Errorf("status dump missing e2e latency line:\n%s", sb.String())
	}
}

// Every Lustre-tier option writes through core.Options.Lustre, the one
// scalable.DeployOptions WatchLustre hands to the backend whole — so a knob
// the chain dropped would show here, not as a silently ignored flag.
func TestLustreOptionsLandInDeployOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  fsmonitor.Option
		got  func(o *core.Options) any
		want any
	}{
		{"WithStorePartitions", fsmonitor.WithStorePartitions(4), func(o *core.Options) any { return o.Lustre.StorePartitions }, 4},
		{"WithClusterNodes", fsmonitor.WithClusterNodes(3), func(o *core.Options) any { return o.Lustre.ClusterNodes }, 3},
		{"WithClusterJoin", fsmonitor.WithClusterJoin("tcp://a:1", "tcp://b:2"), func(o *core.Options) any { return strings.Join(o.Lustre.ClusterJoin, ",") }, "tcp://a:1,tcp://b:2"},
		{"WithClusterListen", fsmonitor.WithClusterListen("tcp://0.0.0.0:7400"), func(o *core.Options) any { return o.Lustre.ClusterListen }, "tcp://0.0.0.0:7400"},
		{"WithClusterNodePrefix", fsmonitor.WithClusterNodePrefix("east"), func(o *core.Options) any { return o.Lustre.ClusterNodePrefix }, "east"},
		{"WithClusterAdvertise", fsmonitor.WithClusterAdvertise("mgs.example"), func(o *core.Options) any { return o.Lustre.ClusterAdvertise }, "mgs.example"},
	} {
		var o core.Options
		tc.opt(&o)
		if got := tc.got(&o); got != tc.want {
			t.Errorf("%s: o.Lustre holds %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWatchLustreClustered: WithClusterNodes swaps the single aggregator
// for a routed node cluster behind the same public API — same events, same
// standardized representation, no consumer-visible difference.
func TestWatchLustreClustered(t *testing.T) {
	cluster := fsmonitor.NewLustreCluster(fsmonitor.LustreConfig{NumMDS: 4})
	m, err := fsmonitor.WatchLustre(cluster, "/mnt/lustre", 0,
		fsmonitor.WithClusterNodes(2), fsmonitor.WithStorePartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sub, err := m.Subscribe(fsmonitor.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Client()
	const n = 32
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("/cd%d", i)
		if err := cl.Mkdir(d); err != nil {
			t.Fatal(err)
		}
		if err := cl.Create(d + "/f"); err != nil {
			t.Fatal(err)
		}
	}
	got := recvAll(t, sub, 2*n, 10*time.Second)
	if len(got) != 2*n {
		t.Fatalf("events = %d, want %d", len(got), 2*n)
	}
	seen := map[string]bool{}
	for _, e := range got {
		if e.Root != "/mnt/lustre" {
			t.Errorf("root = %q", e.Root)
		}
		key := e.String()
		if seen[key] {
			t.Errorf("duplicate event %q", key)
		}
		seen[key] = true
	}
}
