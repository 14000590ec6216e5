package telemetry

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned non-nil handles: %v %v %v", c, g, h)
	}
	// All no-ops, none may panic.
	c.Add(1)
	c.Inc()
	g.Set(5)
	g.Add(-2)
	h.Observe(7)
	h.ObserveSince(time.Now())
	r.GaugeFunc("f", func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles reported non-zero values")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot not zero")
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil registry snapshot not empty: %v", snap)
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fsmon.test.count")
	c.Add(3)
	if c2 := r.Counter("fsmon.test.count"); c2 != c {
		t.Fatal("second Counter call returned a different handle")
	}
	g := r.Gauge("fsmon.test.gauge")
	g.Set(-7)
	h := r.Histogram("fsmon.test.us", nil)
	h.Observe(10)
	r.GaugeFunc("fsmon.test.fn", func() float64 { return 42 })

	snap := r.Snapshot()
	if snap["fsmon.test.count"] != float64(3) {
		t.Errorf("counter = %v, want 3", snap["fsmon.test.count"])
	}
	if snap["fsmon.test.gauge"] != float64(-7) {
		t.Errorf("gauge = %v, want -7", snap["fsmon.test.gauge"])
	}
	if snap["fsmon.test.fn"] != float64(42) {
		t.Errorf("gaugefunc = %v, want 42", snap["fsmon.test.fn"])
	}
	hs, ok := snap["fsmon.test.us"].(HistogramSnapshot)
	if !ok || hs.Count != 1 {
		t.Errorf("histogram = %#v, want count 1", snap["fsmon.test.us"])
	}
}

func TestRegistryTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("name").Inc()
	// Requesting the same name as a different instrument yields a nil
	// (no-op) handle rather than corrupting the registered one.
	if g := r.Gauge("name"); g != nil {
		t.Fatal("gauge under a counter name should be nil")
	}
	if h := r.Histogram("name", nil); h != nil {
		t.Fatal("histogram under a counter name should be nil")
	}
	if r.Counter("name").Value() != 1 {
		t.Fatal("original counter lost")
	}
}

func TestGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("x", func() float64 { return 1 })
	r.GaugeFunc("x", func() float64 { return 2 })
	if v := r.Snapshot()["x"]; v != float64(2) {
		t.Fatalf("x = %v, want 2 (re-registration must replace)", v)
	}
}

// TestRegistryConcurrency drives registration, updates, and snapshots from
// many goroutines at once; run with -race this validates the locking
// discipline (including GaugeFuncs evaluated outside the registry lock).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var writers sync.WaitGroup
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := r.Counter("shared.count")
			h := r.Histogram("shared.us", nil)
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Observe(int64(i % 500))
				r.Gauge("shared.gauge").Set(int64(i))
				r.GaugeFunc("shared.fn", func() float64 { return float64(w) })
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	if got := r.Counter("shared.count").Value(); got != 8*2000 {
		t.Fatalf("count = %d, want %d", got, 8*2000)
	}
	if got := r.Histogram("shared.us", nil).Count(); got != 8*2000 {
		t.Fatalf("histogram count = %d, want %d", got, 8*2000)
	}
}

// TestHistogramQuantileAccuracy uses decade bounds with a uniform
// population so every quantile is exactly interpolable: 1000 observations
// of 1..1000 against bounds 100,200,...,1000 put 100 in each bucket, and
// linear interpolation recovers the true quantiles exactly.
func TestHistogramQuantileAccuracy(t *testing.T) {
	bounds := []int64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	h := newHistogram(bounds)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if want := 500.5; s.Mean != want {
		t.Errorf("mean = %v, want %v", s.Mean, want)
	}
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"p50", s.P50, 500},
		{"p95", s.P95, 950},
		{"p99", s.P99, 990},
	} {
		if diff := tc.got - tc.want; diff < -1 || diff > 1 {
			t.Errorf("%s = %v, want %v ±1", tc.name, tc.got, tc.want)
		}
	}
	if s.Max != 1000 {
		t.Errorf("max = %d, want 1000", s.Max)
	}
}

// ObserveN(v, n) leaves a histogram exactly as n calls of Observe(v) do:
// count, sum, every bucket and max, over values in, between, on and past the
// bounds, negative ones too.
func TestHistogramObserveN(t *testing.T) {
	bounds := []int64{10, 20, 40}
	one, batched := newHistogram(bounds), newHistogram(bounds)
	for k, v := range []int64{5, 10, 11, 40, 41, 1_000_000, -3, 20, 5} {
		n := k % 4 // 0 records nothing
		for range n {
			one.Observe(v)
		}
		batched.ObserveN(v, n)
		gotBounds, got := batched.Buckets()
		_, want := one.Buckets()
		if batched.Count() != one.Count() || batched.Sum() != one.Sum() || batched.Max() != one.Max() || !slices.Equal(got, want) {
			t.Fatalf("after ObserveN(%d, %d): count %d sum %d max %d buckets %v over %v; %d Observe calls: count %d sum %d max %d buckets %v",
				v, n, batched.Count(), batched.Sum(), batched.Max(), got, gotBounds, n, one.Count(), one.Sum(), one.Max(), want)
		}
	}
	var nilHist *Histogram
	nilHist.ObserveN(1, 3) // safe on a nil receiver, as Observe is
}

func TestHistogramOverflow(t *testing.T) {
	h := newHistogram([]int64{10, 20})
	h.Observe(5)
	h.Observe(1_000_000)
	s := h.Snapshot()
	if s.Max != 1_000_000 {
		t.Fatalf("max = %d", s.Max)
	}
	// The overflow bucket has no upper bound; quantiles that land there
	// report the observed max.
	if s.P99 != 1_000_000 {
		t.Fatalf("p99 = %v, want observed max", s.P99)
	}
}

func TestWriteSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(12)
	r.Gauge("a.gauge").Set(3)
	r.Histogram("c.us", nil).Observe(50)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Sorted by name, integers rendered without a decimal point.
	if lines[0] != "a.gauge 3" || lines[1] != "b.count 12" {
		t.Errorf("unexpected scalar lines: %q, %q", lines[0], lines[1])
	}
	if !strings.HasPrefix(lines[2], "c.us count=1 ") || !strings.Contains(lines[2], "max=50") {
		t.Errorf("unexpected histogram line: %q", lines[2])
	}
}

func TestStampSince(t *testing.T) {
	if us := SinceStampUS(0); us != -1 {
		t.Fatalf("zero stamp → %d, want -1 (untraced)", us)
	}
	if us := SinceStampUS(Stamp()); us < 0 {
		t.Fatalf("fresh stamp → %d, want >= 0", us)
	}
	if us := SinceStampUS(time.Now().Add(time.Hour).UnixNano()); us != 0 {
		t.Fatalf("future stamp → %d, want clamp to 0", us)
	}
}
