package lustredsi

import (
	"fmt"
	"testing"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/scalable"
)

func testCluster() *lustre.Cluster {
	return lustre.NewCluster(lustre.Config{NumMDS: 2, NumOSS: 1, OSTsPerOSS: 1, OSTSizeGB: 1})
}

func drain(d dsi.DSI, quiet time.Duration) []events.Event {
	var out []events.Event
	for {
		select {
		case e, ok := <-d.Events():
			if !ok {
				return out
			}
			out = append(out, e)
		case <-time.After(quiet):
			return out
		}
	}
}

func TestRegisterMatchesLustreOnly(t *testing.T) {
	reg := dsi.NewRegistry()
	Register(reg)
	name, err := reg.Select(dsi.StorageInfo{FSType: "lustre"})
	if err != nil || name != Name {
		t.Errorf("Select = %q, %v", name, err)
	}
	if _, err := reg.Select(dsi.StorageInfo{FSType: "local"}); err == nil {
		t.Error("lustre DSI matched local storage")
	}
}

func TestEndToEndThroughDSI(t *testing.T) {
	cluster := testCluster()
	d, err := New(dsi.Config{Root: "/mnt/lustre", Backend: cluster})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Name() != Name {
		t.Errorf("name = %q", d.Name())
	}
	cl := cluster.Client()
	for i := 0; i < 10; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	evs := drain(d, 300*time.Millisecond)
	if len(evs) != 10 {
		t.Fatalf("events = %d", len(evs))
	}
	for _, e := range evs {
		if e.Root != "/mnt/lustre" || e.Source != Name {
			t.Errorf("event = %+v", e)
		}
	}
}

func TestBackendForms(t *testing.T) {
	cluster := testCluster()
	// Explicit Backend struct with custom cache size.
	d, err := New(dsi.Config{Root: "/x", Backend: &Backend{Cluster: cluster, DeployOptions: scalable.DeployOptions{CacheSize: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Bad backends rejected.
	if _, err := New(dsi.Config{Backend: 42}); err == nil {
		t.Error("accepted int backend")
	}
	if _, err := New(dsi.Config{Backend: &Backend{}}); err == nil {
		t.Error("accepted nil cluster")
	}
}

// The backend hands its DeployOptions to Deploy whole: a knob set on it
// reaches the tier and the collectors without lustredsi naming it.
func TestBackendOptionsReachDeployment(t *testing.T) {
	cluster := testCluster()
	d, err := New(dsi.Config{Backend: &Backend{
		Cluster:       cluster,
		DeployOptions: scalable.DeployOptions{StorePartitions: 4, CacheSize: 7},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dep := d.(*lustreDSI).Deployment()
	if got := dep.Aggregator.Partitions(); got != 4 {
		t.Errorf("aggregator partitions = %d, want 4", got)
	}
	for _, c := range dep.Collectors {
		// The cache rounds 7 up to a whole number of entries per shard.
		if got := c.Stats().Cache.Cap; got < 7 || got > 8 {
			t.Errorf("collector cache capacity = %d, want 7 (8 once sharded)", got)
		}
	}
}

// The tier's store is acknowledged as the DSI forwards: without it the
// default, unbounded engine keeps every event for the life of the process.
func TestTierStoreBounded(t *testing.T) {
	for _, nodes := range []int{0, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			cluster := testCluster()
			d, err := New(dsi.Config{Backend: &Backend{
				Cluster:       cluster,
				DeployOptions: scalable.DeployOptions{ClusterNodes: nodes, PollInterval: time.Millisecond},
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			cl := cluster.Client()
			const n = 3000
			for i := 0; i < n; i++ {
				if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			got := 0
			for deadline := time.After(20 * time.Second); got < n; {
				select {
				case <-d.Events():
					got++
				case <-deadline:
					t.Fatalf("forwarded %d of %d events", got, n)
				}
			}
			// The ack for the last batch follows its last Emit.
			dep := d.(*lustreDSI).Deployment()
			var st eventstore.Stats
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				st = eventstore.Stats{}
				ds := dep.Stats()
				for _, a := range append(ds.Nodes, ds.Aggregator) {
					st.Retained += a.Store.Retained
					st.Appended += a.Store.Appended
					st.Purged += a.Store.Purged
				}
				if st.Retained == 0 || time.Now().After(deadline) {
					break
				}
			}
			if st.Appended != n || st.Purged+uint64(st.Retained) != st.Appended {
				t.Errorf("tier store %+v: want %d appended, and purged + retained equal to it", st, n)
			}
			if st.Retained > pipeline.DefaultChangelogBatch {
				t.Errorf("tier store retains %d events after the stream drained, want at most one batch", st.Retained)
			}
		})
	}
}

func TestDeploymentExposed(t *testing.T) {
	cluster := testCluster()
	d, err := New(dsi.Config{Backend: cluster})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ld, ok := d.(*lustreDSI)
	if !ok {
		t.Fatal("unexpected concrete type")
	}
	dep := ld.Deployment()
	if len(dep.Collectors) != cluster.NumMDS() {
		t.Errorf("collectors = %d", len(dep.Collectors))
	}
}
