// Mixed-backend deployment tests live in an external test package so they
// can compose the Lustre DSI (which itself wraps package scalable) with
// local and object-store backends behind one aggregation tier.
package scalable_test

import (
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/lustredsi"
	"fsmonitor/internal/dsi/objectdsi"
	"fsmonitor/internal/dsi/simdsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/scalable"
	"fsmonitor/internal/telemetry"
	"fsmonitor/internal/vfs"
)

// TestMixedThreeMountDeploy is the ISSUE's acceptance scenario: a Lustre
// simulator, a local simulated watcher, and an object store mounted into
// one namespace, delivering one unified, correctly-prefixed stream through
// collector → aggregator → consumer with per-mount telemetry.
func TestMixedThreeMountDeploy(t *testing.T) {
	cluster := lustre.NewCluster(lustre.Config{Name: "mix", NumMDS: 2, NumOSS: 2, OSTsPerOSS: 2, OSTSizeGB: 1})
	lustreDSI, err := lustredsi.New(dsi.Config{Root: "/mnt/lustre", Backend: cluster})
	if err != nil {
		t.Fatal(err)
	}

	fs := vfs.New()
	if err := fs.MkdirAll("/src"); err != nil {
		t.Fatal(err)
	}
	localDSI, err := simdsi.NewInotify(dsi.Config{Root: "/", Recursive: true, Backend: fs})
	if err != nil {
		lustreDSI.Close()
		t.Fatal(err)
	}

	bucket := objectdsi.NewBucket()
	objDSI, err := objectdsi.New(dsi.Config{Root: "/", Backend: &objectdsi.Backend{
		Bucket: bucket, ListInterval: 10 * time.Millisecond,
	}})
	if err != nil {
		lustreDSI.Close()
		localDSI.Close()
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	mon, err := scalable.Deploy(nil, scalable.DeployOptions{Telemetry: reg, Mounts: []scalable.MountSource{
		{Prefix: "/lustre", DSI: lustreDSI},
		{Prefix: "/local", DSI: localDSI},
		{Prefix: "/obj", DSI: objDSI},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	// Drive all three backends.
	cl := cluster.Client()
	if err := cl.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/data/results.h5"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/src/main.go"); err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put("models/weights.bin", 4096); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{
		"/lustre/data/results.h5": false,
		"/local/src/main.go":      false,
		"/obj/models/weights.bin": false,
	}
	bySource := map[string]int{}
	deadline := time.After(10 * time.Second)
	for remaining := len(want); remaining > 0; {
		select {
		case batch, ok := <-con.C():
			if !ok {
				t.Fatal("consumer closed early")
			}
			for _, e := range batch {
				if e.Root != "/" {
					t.Errorf("event root = %q (want unified /): %v", e.Root, e)
				}
				if seen, tracked := want[e.Path]; tracked && !seen && e.Op.Has(events.OpCreate) {
					want[e.Path] = true
					remaining--
				}
				switch {
				case strings.HasPrefix(e.Path, "/lustre/"), strings.HasPrefix(e.Path, "/local/"), strings.HasPrefix(e.Path, "/obj/"):
					bySource[strings.SplitN(e.Path[1:], "/", 2)[0]]++
				default:
					t.Errorf("event outside every mount prefix: %v", e)
				}
				if e.Seq == 0 {
					t.Errorf("unsequenced event (store bypassed): %v", e)
				}
			}
		case <-deadline:
			t.Fatalf("missing events: %v (got per-mount %v)", want, bySource)
		}
	}

	// Per-mount capture counters mirror under fsmon.mount.<name>.*.
	snap := reg.Snapshot()
	for _, name := range []string{"lustre", "local", "obj"} {
		key := "fsmon.mount." + name + ".captured"
		v, ok := snap[key].(float64)
		if !ok || v < 1 {
			t.Errorf("%s = %v", key, snap[key])
		}
	}

	st := mon.Stats()
	if len(st.Collectors) != 3 {
		t.Fatalf("collectors = %d", len(st.Collectors))
	}
	var totalPublished uint64
	for _, cs := range st.Collectors {
		if cs.RecordsRead == 0 || cs.EventsPublished == 0 {
			t.Errorf("mount %s stats = %+v", cs.Mount, cs)
		}
		totalPublished += cs.EventsPublished
	}
	if st.Aggregator.Received != totalPublished {
		t.Errorf("aggregator received %d, collectors published %d", st.Aggregator.Received, totalPublished)
	}

	// The mount collectors seal batches through the same tail as the
	// Changelog ones, so their events are in the conservation audit: the
	// quiesced deployment balances to zero with everything captured also
	// published and stored.
	aud := reg.Audit()
	deadline = time.After(5 * time.Second)
	for aud.Balance(1) != 0 {
		select {
		case <-deadline:
			t.Fatalf("audit never balanced: %+v", aud.Snapshot())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if s := aud.Snapshot(); s.Captured == 0 || s.Captured != s.Published || s.Captured != s.Stored {
		t.Errorf("audit = %+v, want captured == published == stored > 0", s)
	}
}

// TestMountDeployPartitionedRecovery checks a partitioned mixed deploy
// still recovers missed events through the cursor-vector path.
func TestMountDeployPartitionedRecovery(t *testing.T) {
	fs := vfs.New()
	localDSI, err := simdsi.NewInotify(dsi.Config{Root: "/", Recursive: true, Backend: fs})
	if err != nil {
		t.Fatal(err)
	}
	bucket := objectdsi.NewBucket()
	objDSI, err := objectdsi.New(dsi.Config{Root: "/", Backend: &objectdsi.Backend{
		Bucket: bucket, ListInterval: 10 * time.Millisecond,
	}})
	if err != nil {
		localDSI.Close()
		t.Fatal(err)
	}
	mon, err := scalable.Deploy(nil, scalable.DeployOptions{StorePartitions: 2, Mounts: []scalable.MountSource{
		{Prefix: "/local", DSI: localDSI},
		{Prefix: "/obj", DSI: objDSI},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := fs.Create("/f" + string(rune('0'+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := bucket.Put("k"+string(rune('0'+i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	got := drainPaths(t, con, 10)
	vec := con.Stats().LastSeqVector
	con.Close()

	// More activity while nobody listens...
	if _, err := fs.Create("/late"); err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put("klate", 1); err != nil {
		t.Fatal(err)
	}
	waitStored(t, mon, 12)

	// ...then a vector-resumed consumer recovers exactly the missed tail.
	con2, err := mon.NewConsumerVector(iface.Filter{Recursive: true}, vec)
	if err != nil {
		t.Fatal(err)
	}
	defer con2.Close()
	late := drainPaths(t, con2, 2)
	for _, p := range []string{"/local/late", "/obj/klate"} {
		if !late[p] {
			t.Errorf("vector recovery missed %s (got %v, first batch %v)", p, late, got)
		}
	}
}

func drainPaths(t *testing.T, con *scalable.Consumer, n int) map[string]bool {
	t.Helper()
	got := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for count := 0; count < n; {
		select {
		case batch, ok := <-con.C():
			if !ok {
				t.Fatalf("consumer closed with %d/%d", count, n)
			}
			for _, e := range batch {
				if !got[e.Path] {
					got[e.Path] = true
					count++
				}
			}
		case <-deadline:
			t.Fatalf("drained %d/%d: %v", count, n, got)
		}
	}
	return got
}

func waitStored(t *testing.T, mon *scalable.Monitor, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for mon.Aggregator.Stats().Stored < n {
		if time.Now().After(deadline) {
			t.Fatalf("stored %d < %d", mon.Aggregator.Stats().Stored, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
