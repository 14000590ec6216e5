package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the watchdog goroutine logs
// into it while the test polls String().
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestStatusJSONRoundTrip(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusDegraded, StatusStalled} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got Status
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Errorf("round trip %v → %s → %v", s, b, got)
		}
	}
	var bad Status
	if err := json.Unmarshal([]byte(`"wedged"`), &bad); err == nil {
		t.Error("accepted unknown status string")
	}
}

func TestHealthNil(t *testing.T) {
	var h *Health
	rep := h.Evaluate()
	if rep.Status != StatusOK || len(rep.Tiers) != 0 {
		t.Errorf("nil health report = %+v", rep)
	}
	h.Close()
}

// stallFixture wires a synthetic pipeline stage whose input and output
// counters the test drives directly — fault injection without a real
// pipeline.
type stallFixture struct {
	reg     *Registry
	s       *Sampler
	h       *Health
	in, out atomic.Int64
}

func newStallFixture(t *testing.T, logger *slog.Logger) *stallFixture {
	t.Helper()
	f := &stallFixture{reg: NewRegistry()}
	f.reg.GaugeFunc("fsmon.aggregator.pipeline.store.in", func() float64 { return float64(f.in.Load()) })
	f.reg.GaugeFunc("fsmon.aggregator.pipeline.store.out", func() float64 { return float64(f.out.Load()) })
	f.s = startStoppedSampler(t, f.reg, 32)
	f.h = NewHealth(f.s, HealthOptions{Windows: 3, Logger: logger})
	f.reg.SetHealth(f.h)
	t.Cleanup(f.h.Close)
	return f
}

// tick advances the synthetic stage by din/dout and takes one sample.
func (f *stallFixture) tick(din, dout int64) {
	f.in.Add(din)
	f.out.Add(dout)
	f.s.SampleNow()
}

// TestHealthStallDetection drives the built-in stall rule through the
// full lifecycle: healthy flow → injected stall (input advances, output
// frozen) → recovery.
func TestHealthStallDetection(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	f := newStallFixture(t, logger)

	// Healthy: both sides advance.
	for i := 0; i < 4; i++ {
		f.tick(10, 10)
	}
	if rep := f.h.Evaluate(); rep.Status != StatusOK {
		t.Fatalf("healthy flow reported %v: %+v", rep.Status, rep.Tiers)
	}

	// Fault injection: the stage keeps accepting but stops emitting.
	// Not yet K windows: must not page early.
	f.tick(10, 0)
	f.tick(10, 0)
	if rep := f.h.Evaluate(); rep.Status != StatusOK {
		t.Fatalf("stall reported after only 2 windows: %+v", rep.Tiers)
	}
	f.tick(10, 0)
	rep := f.h.Evaluate()
	if rep.Status != StatusStalled {
		t.Fatalf("3-window stall not detected: %+v", rep.Tiers)
	}
	found := false
	for _, v := range rep.Tiers {
		if v.Tier == "aggregator" && v.Status == StatusStalled {
			found = true
			if len(v.Reasons) == 0 || !strings.Contains(v.Reasons[0], "store") {
				t.Errorf("stall reason does not name the stage: %v", v.Reasons)
			}
		}
	}
	if !found {
		t.Fatalf("no stalled aggregator verdict in %+v", rep.Tiers)
	}
	if !strings.Contains(logBuf.String(), "tier health transition") {
		t.Error("stall transition not logged")
	}

	// Recovery: output drains again.
	logBuf.Reset()
	f.tick(10, 40)
	if rep := f.h.Evaluate(); rep.Status != StatusOK {
		t.Fatalf("recovery not detected: %+v", rep.Tiers)
	}
	if !strings.Contains(logBuf.String(), "tier recovered") {
		t.Error("recovery transition not logged")
	}
}

// TestHealthzFlips is the acceptance check: a served /healthz answers 200
// while healthy and flips to 503 when a fault-injected stall wedges a
// pipeline stage — the orchestrator-facing contract.
func TestHealthzFlips(t *testing.T) {
	f := newStallFixture(t, nil)
	srv, err := Serve("127.0.0.1:0", f.reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/healthz"

	for i := 0; i < 4; i++ {
		f.tick(10, 10)
	}
	rep, ok, err := FetchHealth(url)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || rep.Status != StatusOK {
		t.Fatalf("healthy endpoint: ok=%v status=%v", ok, rep.Status)
	}
	if rep.Samples == 0 {
		t.Error("report carries no sample count")
	}

	for i := 0; i < 3; i++ {
		f.tick(10, 0) // wedge the stage
	}
	rep, ok, err = FetchHealth(url)
	if err != nil {
		t.Fatal(err)
	}
	if ok || rep.Status != StatusStalled {
		t.Fatalf("stalled endpoint: ok=%v status=%v tiers=%+v", ok, rep.Status, rep.Tiers)
	}

	f.tick(10, 40) // drain
	rep, ok, err = FetchHealth(url)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || rep.Status != StatusOK {
		t.Fatalf("recovered endpoint: ok=%v status=%v", ok, rep.Status)
	}
}

// TestHealthQueueSaturation: a subscription queue pinned at capacity for
// K windows degrades its tier; dipping below the threshold clears it.
func TestHealthQueueSaturation(t *testing.T) {
	reg := NewRegistry()
	var depth atomic.Int64
	reg.GaugeFunc("fsmon.consumer.sub.queue_depth", func() float64 { return float64(depth.Load()) })
	reg.GaugeFunc("fsmon.consumer.sub.queue_cap", func() float64 { return 100 })
	s := startStoppedSampler(t, reg, 16)
	h := NewHealth(s, HealthOptions{Windows: 3})
	defer h.Close()

	depth.Store(95)
	for i := 0; i < 3; i++ {
		s.SampleNow()
	}
	rep := h.Evaluate()
	if rep.Status != StatusDegraded {
		t.Fatalf("saturated queue reported %v: %+v", rep.Status, rep.Tiers)
	}
	depth.Store(10)
	s.SampleNow()
	if rep := h.Evaluate(); rep.Status != StatusOK {
		t.Fatalf("drained queue still %v: %+v", rep.Status, rep.Tiers)
	}
}

// TestHealthGrowthAndErrorRules: cursor-lag growth and fid2path error
// spikes degrade; flat series stay ok.
func TestHealthGrowthAndErrorRules(t *testing.T) {
	reg := NewRegistry()
	var lag, errs atomic.Int64
	reg.GaugeFunc("fsmon.consumer.cursor_lag.p0", func() float64 { return float64(lag.Load()) })
	reg.GaugeFunc("fsmon.collector.mdt0.resolver.fid2path_errors", func() float64 { return float64(errs.Load()) })
	s := startStoppedSampler(t, reg, 16)
	h := NewHealth(s, HealthOptions{Windows: 3, ErrorRatePerSec: 5})
	defer h.Close()

	s.SampleNow()
	for i := 0; i < 3; i++ {
		lag.Add(100)
		s.SampleNow()
		time.Sleep(2 * time.Millisecond)
	}
	rep := h.Evaluate()
	degraded := map[string]bool{}
	for _, v := range rep.Tiers {
		degraded[v.Tier] = v.Status == StatusDegraded
	}
	if !degraded["consumer"] {
		t.Errorf("growing cursor lag not flagged: %+v", rep.Tiers)
	}
	if degraded["collector.mdt0"] {
		t.Errorf("flat error counter wrongly flagged: %+v", rep.Tiers)
	}

	// A hard error burst within one sample interval trips the spike rule.
	errs.Add(100000)
	s.SampleNow()
	rep = h.Evaluate()
	spiked := false
	for _, v := range rep.Tiers {
		if v.Tier == "collector.mdt0" && v.Status == StatusDegraded {
			spiked = true
		}
	}
	if !spiked {
		t.Errorf("error spike not flagged: %+v", rep.Tiers)
	}
}

// TestHealthWatchdogRuns: the sampler's tick evaluates the attached
// model right after it samples, so transitions are observed (and logged)
// with nobody polling; a closed model is no longer evaluated.
func TestHealthWatchdogRuns(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	reg := NewRegistry()
	var in atomic.Int64
	reg.GaugeFunc("fsmon.aggregator.pipeline.store.in", func() float64 { return float64(in.Add(10)) })
	reg.GaugeFunc("fsmon.aggregator.pipeline.store.out", func() float64 { return 0 })
	s := reg.StartSampler(time.Millisecond, 32)
	t.Cleanup(s.Close)
	h := NewHealth(s, HealthOptions{Windows: 3, Logger: logger})
	reg.SetHealth(h)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logBuf.String(), "tier health transition") {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never logged the stall")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The tick mirrors each verdict as a gauge; once closed, the model is
	// not evaluated again, so a gauge reset stays reset. Every sample
	// reads the input gauge once, and a tick's evaluation ends before the
	// next tick samples, so two more samples retire any evaluation that
	// was in flight.
	waitSamples := func(k int64) {
		for n := in.Load() + 10*k; in.Load() < n; {
			time.Sleep(time.Millisecond)
		}
	}
	h.Close()
	waitSamples(2)
	reg.Gauge("fsmon.health.aggregator").Set(-1)
	waitSamples(2)
	if v := reg.Gauge("fsmon.health.aggregator").Value(); v != -1 {
		t.Fatalf("closed model still evaluated by the tick: fsmon.health.aggregator = %d", v)
	}
}

// TestHealthHeartbeatLapse: a cluster node whose peer-heartbeat age
// crosses HeartbeatLapseMS degrades the cluster tier; a fresh heartbeat
// clears it.
func TestHealthHeartbeatLapse(t *testing.T) {
	reg := NewRegistry()
	var ageMS atomic.Int64
	reg.GaugeFunc("fsmon.cluster.n0.heartbeat_age_ms", func() float64 { return float64(ageMS.Load()) })
	s := startStoppedSampler(t, reg, 16)
	h := NewHealth(s, HealthOptions{HeartbeatLapseMS: 500})
	defer h.Close()

	ageMS.Store(40)
	s.SampleNow()
	if rep := h.Evaluate(); rep.Status != StatusOK {
		t.Fatalf("fresh heartbeat reported %v: %+v", rep.Status, rep.Tiers)
	}

	ageMS.Store(750)
	s.SampleNow()
	rep := h.Evaluate()
	if rep.Status != StatusDegraded {
		t.Fatalf("lapsed heartbeat reported %v: %+v", rep.Status, rep.Tiers)
	}
	found := false
	for _, v := range rep.Tiers {
		if v.Tier == "cluster" && v.Status == StatusDegraded {
			found = true
			if len(v.Reasons) == 0 || !strings.Contains(v.Reasons[0], "heartbeat") {
				t.Errorf("cluster verdict lacks heartbeat reason: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("cluster tier not degraded: %+v", rep.Tiers)
	}

	// The node hears a peer again: the next sample clears the verdict.
	ageMS.Store(10)
	s.SampleNow()
	if rep := h.Evaluate(); rep.Status != StatusOK {
		t.Fatalf("recovered heartbeat still %v: %+v", rep.Status, rep.Tiers)
	}
}

// TestHealthEvictionRule: a publisher's or the interface layer's eviction
// of a lagging subscriber degrades its tier for the window it happened in;
// a store partition's retention evictions are not subscriber evictions.
func TestHealthEvictionRule(t *testing.T) {
	reg := NewRegistry()
	counters := map[string]*atomic.Int64{}
	for _, name := range []string{
		"fsmon.aggregator.pub.evicted",
		"fsmon.core.iface.evicted",
		"fsmon.store.p0.evicted",
	} {
		n := new(atomic.Int64)
		counters[name] = n
		reg.GaugeFunc(name, func() float64 { return float64(n.Load()) })
	}
	s := startStoppedSampler(t, reg, 16)
	h := NewHealth(s, HealthOptions{Windows: 3})
	defer h.Close()
	status := func() map[string]Status {
		out := map[string]Status{}
		for _, v := range h.Evaluate().Tiers {
			out[v.Tier] = v.Status
		}
		return out
	}

	s.SampleNow()
	for _, n := range counters {
		n.Add(1)
	}
	time.Sleep(2 * time.Millisecond)
	s.SampleNow()
	got := status()
	for tier, want := range map[string]Status{"aggregator": StatusDegraded, "core": StatusDegraded, "store": StatusOK} {
		if got[tier] != want {
			t.Errorf("%s = %v after one eviction each, want %v", tier, got[tier], want)
		}
	}
	// No eviction in the next window: the verdicts clear.
	time.Sleep(2 * time.Millisecond)
	s.SampleNow()
	if rep := h.Evaluate(); rep.Status != StatusOK {
		t.Errorf("quiet window still %v: %+v", rep.Status, rep.Tiers)
	}
}

// BenchmarkHealthEvaluate is one watchdog evaluation over a full window:
// 300 series × 256 samples, with metrics for every built-in rule to read
// (stage in/out pairs, queue depth and capacity, cursor and changelog
// lag, fid2path errors, heartbeat ages, the audit's violation counters).
func BenchmarkHealthEvaluate(b *testing.B) {
	reg := NewRegistry()
	var tick atomic.Int64
	add := func(name string, fn func(t float64) float64) {
		reg.GaugeFunc(name, func() float64 { return fn(float64(tick.Load())) })
	}
	add("fsmon.audit.violations", func(float64) float64 { return 0 })
	add("fsmon.audit.seq_gaps", func(float64) float64 { return 0 })
	add("fsmon.audit.seq_dups", func(float64) float64 { return 0 })
	for i := 0; i < 33; i++ {
		mdt := fmt.Sprintf("fsmon.collector.mdt%d", i)
		add(mdt+".pipeline.resolve.in", func(t float64) float64 { return 10 * t })
		add(mdt+".pipeline.resolve.out", func(t float64) float64 { return 10 * t })
		add(mdt+".sub.queue_depth", func(t float64) float64 { return float64(int(t) % 64) })
		add(mdt+".sub.queue_cap", func(float64) float64 { return 64 })
		add(mdt+".changelog_lag", func(t float64) float64 { return float64(int(t) % 7) })
		add(mdt+".resolver.fid2path_errors", func(t float64) float64 { return t / 100 })
		add(mdt+".records_read", func(t float64) float64 { return 512 * t })
		add(fmt.Sprintf("fsmon.consumer.cursor_lag.p%d", i), func(t float64) float64 { return float64(int(t) % 5) })
		add(fmt.Sprintf("fsmon.cluster.n%d.heartbeat_age_ms", i), func(float64) float64 { return 250 })
	}
	s := reg.StartSampler(time.Hour, DefaultSeriesLen) // driven by SampleNow below
	defer s.Close()
	for i := 0; i < DefaultSeriesLen; i++ {
		tick.Add(1)
		s.SampleNow()
	}
	if n := len(s.History()[0].Values); n != 300 {
		b.Fatalf("%d series, want 300", n)
	}
	h := NewHealth(s, HealthOptions{})
	h.Evaluate() // first evaluation registers the fsmon.health.* gauges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluateSink = h.Evaluate()
	}
}

// evaluateSink keeps BenchmarkHealthEvaluate's result live.
var evaluateSink HealthReport
