package scalable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/telemetry"
)

// streamUnique drives count creates with a unique name prefix through the
// cluster client and returns after the consumer delivered them all.
func streamUnique(t *testing.T, lc *lustre.Cluster, con *Consumer, prefix string, count int) {
	t.Helper()
	cl := lc.Client()
	for i := 0; i < count; i++ {
		if err := cl.Create(fmt.Sprintf("/%s-f%03d.dat", prefix, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainConsumer(con, time.Second); len(got) != count {
		t.Fatalf("delivered %d events, want %d", len(got), count)
	}
}

// TestIncidentSmoke is the make incident-smoke gate: a clustered
// deployment with the flight recorder armed, a pipeline stall injected
// under a live workload, and one assertion chain — the watchdog trips
// within its window, the capture boosts trace sampling, and the bundle on
// disk holds dense traces, the tripping rule, sampler history, and the
// log ring. With FSMON_INCIDENT_SMOKE_OUT set, the bundle is written
// there as the CI artifact.
func TestIncidentSmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	logger := reg.EnableLogRing(0).Wrap(nil)
	reg.EnableTracing(1024, 0) // sparse steady-state rate; the boost tightens it
	dir := t.TempDir()
	fr, err := reg.EnableFlightRecorder(telemetry.IncidentOptions{
		Dir:          dir,
		BoostN:       16,
		CaptureDelay: 300 * time.Millisecond, // boosted traces accumulate here
		Logger:       logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	lc := testCluster(1)
	m, err := Deploy(lc, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		ClusterNodes:    2,
		StorePartitions: 4,
		Store:           eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
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

	sampler := reg.StartSampler(time.Hour, 64) // driven by SampleNow below
	defer sampler.Close()
	health := telemetry.NewHealth(sampler, telemetry.HealthOptions{Windows: 2, Logger: logger})
	defer health.Close()
	reg.SetHealth(health)

	// Steady state first: real events flow at the sparse trace rate.
	streamUnique(t, lc, con, "steady", 40)
	if n := reg.TraceSampleN(); n != 1024 {
		t.Fatalf("steady-state trace rate = %d, want 1024", n)
	}

	// Inject the incident: a pipeline stage that accepts input and emits
	// nothing, window after window, while the real pipeline keeps moving.
	in := reg.Gauge("fsmon.injected.pipeline.stage.in")
	reg.Gauge("fsmon.injected.pipeline.stage.out").Set(0)
	var rep telemetry.HealthReport
	for i := 1; i <= 3; i++ {
		in.Set(int64(i * 100))
		sampler.SampleNow()
		rep = health.Evaluate()
	}
	trippedAt := time.Now()
	if rep.Status != telemetry.StatusStalled {
		t.Fatalf("injected stall not detected: %+v", rep)
	}
	// The trip armed the boost synchronously; the capture itself lands
	// CaptureDelay later. Stream through the boosted window so complete
	// end-to-end traces exist for the bundle.
	if n := reg.TraceSampleN(); n != 16 {
		t.Fatalf("trace rate after trip = %d, want boosted 16", n)
	}
	streamUnique(t, lc, con, "incident", 120)

	fr.Wait()
	if time.Since(trippedAt) > 5*time.Second {
		t.Errorf("capture took %v after the trip, want within one watchdog window", time.Since(trippedAt))
	}
	if got := fr.Captures(); got != 1 {
		t.Fatalf("captures = %d, want exactly 1 (debounce must hold across evaluations)", got)
	}
	list := fr.List()
	if len(list) != 1 {
		t.Fatalf("incident list = %+v, want 1 bundle", list)
	}
	raw, err := fr.Read(list[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var b telemetry.IncidentBundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.Trigger != "watchdog" || b.Tier != "injected" || b.To != "stalled" {
		t.Fatalf("bundle trigger/tier/to = %s/%s/%s, want watchdog/injected/stalled", b.Trigger, b.Tier, b.To)
	}
	ruleNamed := false
	for _, r := range b.Reasons {
		if strings.Contains(r, "fsmon.injected.pipeline.stage") && strings.Contains(r, "no output") {
			ruleNamed = true
		}
	}
	if !ruleNamed {
		t.Fatalf("bundle reasons %v do not name the tripping stall rule", b.Reasons)
	}
	if len(b.Traces) == 0 {
		t.Fatal("bundle holds no completed traces despite the boosted window")
	}
	if b.TraceSampleN != 16 || !b.BoostActive {
		t.Fatalf("bundle sampling = %d boost=%v, want 16/true", b.TraceSampleN, b.BoostActive)
	}
	if len(b.History) == 0 {
		t.Fatal("bundle missing sampler history")
	}
	logged := false
	for _, lr := range b.Logs {
		if lr.Msg == "tier health transition" {
			logged = true
		}
	}
	if !logged {
		t.Fatal("bundle log ring missing the watchdog transition warning")
	}
	if b.Audit == nil {
		t.Fatal("bundle missing the conservation-audit snapshot")
	}
	if b.Cluster == nil {
		t.Fatal("bundle missing the federated cluster view")
	}
	if len(b.Metrics) == 0 || b.Goroutines == "" {
		t.Fatal("bundle missing metrics snapshot or goroutine profile")
	}

	if out := os.Getenv("FSMON_INCIDENT_SMOKE_OUT"); out != "" {
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("incident bundle artifact: %s", out)
	}
}
