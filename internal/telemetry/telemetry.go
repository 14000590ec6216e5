// Package telemetry is FSMonitor's unified observability layer: a
// lock-cheap metrics registry every tier mirrors its statistics into, an
// event-latency tracing vocabulary, and the introspection surfaces (JSON
// snapshots over HTTP, expvar, pprof, and a one-shot text dump).
//
// The paper evaluates FSMonitor through black-box numbers — event rates
// (Table IV), CPU and memory (Table VII), consumer lag (Fig. 9) — and
// related monitoring systems treat self-observability as a first-class
// requirement (MELT's live aggregated instrumentation, Robinhood's ingest
// lag). This package gives the reproduction the same substrate: one
// namespace ("fsmon.collector.mdt0.resolve_us", "fsmon.store.p0.append_us",
// "fsmon.consumer.lag_us", ...) that a running deployment exposes live,
// so every perf claim has an in-process measurement.
//
// Design constraints, in order:
//
//   - Disabled must cost nothing. Every handle type (*Counter, *Gauge,
//     *Histogram) and *Registry itself is nil-safe: a component holding a
//     nil registry calls the same code, and the nil check is a predicted
//     branch. The default everywhere is nil — telemetry is opt-in.
//   - Enabled must be lock-cheap. Hot-path updates are single atomic
//     operations on pre-resolved handles; the registry map is only
//     consulted at registration time, never per event. Most mirroring is
//     cheaper still: components register GaugeFuncs closing over their
//     existing atomic stat counters, so the hot path is not touched at
//     all — the cost is paid at snapshot time by whoever is looking.
//   - One namespace. Names are dotted, lower_snake per segment, rooted at
//     "fsmon.". Unit suffixes are part of the name (_us, _bytes, _rate).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with one implicit overflow
// bucket above the last bound. Updates are a few atomic adds; quantiles
// are estimated at snapshot time by linear interpolation within the
// covering bucket.
type Histogram struct {
	bounds  []int64 // ascending upper bounds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

// newHistogram builds a histogram over ascending bounds.
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records the value v n times over, as n calls of Observe(v) would,
// in one update. Safe on a nil receiver.
func (h *Histogram) ObserveN(v int64, n int) {
	if h == nil || n <= 0 {
		return
	}
	// Bucket search: the bound lists are small (tens of entries) and the
	// branchy linear scan beats binary search at that size; latency
	// observations also cluster in the low buckets.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(uint64(n))
	h.count.Add(uint64(n))
	h.sum.Add(v * int64(n))
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveSince records the elapsed time since start in microseconds. Safe
// on a nil receiver.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Microseconds())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value (0 on a nil receiver).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Overflow returns the number of observations above the last bucket bound
// (0 on a nil receiver). A non-zero overflow means the bucket layout is too
// narrow for the workload and quantile estimates near the tail lean on the
// observed max instead of interpolation.
func (h *Histogram) Overflow() uint64 {
	if h == nil {
		return 0
	}
	return h.buckets[len(h.buckets)-1].Load()
}

// Buckets returns the histogram's upper bounds and per-bucket counts. The
// counts slice has one more entry than bounds: the final entry is the
// overflow bucket (observations above the last bound). Counts are loaded
// without a global lock, so a snapshot racing observations is approximate.
// Nil receivers return nil slices.
func (h *Histogram) Buckets() (bounds []int64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = make([]int64, len(h.bounds))
	copy(bounds, h.bounds)
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return bounds, counts
}

// HistogramSnapshot summarizes a histogram at one instant. Overflow is the
// count of observations that landed above the last bucket bound — when it
// is non-zero, tail quantiles report the tracked max rather than an
// interpolated value, and the max/overflow pair says how hard the layout
// is being exceeded.
type HistogramSnapshot struct {
	Count    uint64  `json:"count"`
	Mean     float64 `json:"mean"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	Max      int64   `json:"max"`
	Overflow uint64  `json:"overflow"`
}

// Snapshot summarizes the histogram. Counts are read without a global
// lock, so a snapshot racing observations is approximate — fine for
// monitoring. Safe on a nil receiver (zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, Max: h.max.Load(), Overflow: counts[len(counts)-1]}
	if total == 0 {
		return s
	}
	s.Mean = float64(h.sum.Load()) / float64(total)
	s.P50 = h.quantile(counts, total, 0.50)
	s.P95 = h.quantile(counts, total, 0.95)
	s.P99 = h.quantile(counts, total, 0.99)
	return s
}

// quantile estimates the q-quantile from bucket counts by interpolating
// linearly within the bucket containing the target rank. The overflow
// bucket reports the observed max (no upper bound to interpolate toward).
func (h *Histogram) quantile(counts []uint64, total uint64, q float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(h.bounds) {
			return float64(h.max.Load())
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(h.bounds[i-1])
		}
		hi := float64(h.bounds[i])
		frac := (rank - prev) / float64(c)
		if math.IsNaN(frac) || frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return float64(h.max.Load())
}

// LatencyBuckets is the default bound set for latency histograms in
// microseconds: a 1-2-5 series from 1µs to 10s. Wide enough for anything
// from a cache probe to a stalled drain, fine enough that p50/p95/p99
// interpolation stays meaningful.
var LatencyBuckets = []int64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
	100_000, 200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
}

// Registry is the unified metric namespace. All methods are safe for
// concurrent use and safe on a nil receiver (returning nil handles, which
// are themselves no-ops) — components thread a possibly-nil *Registry and
// never branch on it.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // *Counter, *Gauge, func() float64 or *Histogram

	// Second-story attachments (PR 5): the background sampler retaining
	// metric history, the watchdog health model over it, and the sampled
	// span-trace ring. All optional; accessors are nil-safe so components
	// thread only the *Registry and discover the rest.
	sampler atomic.Pointer[Sampler]
	health  atomic.Pointer[Health]
	traces  atomic.Pointer[TraceRing]
	traceN  atomic.Int64

	// Cluster observability plane (PR 9): the delivery-conservation
	// auditor and the federated cluster view. Optional and nil-safe like
	// the attachments above.
	audit      atomic.Pointer[Audit]
	federation atomic.Pointer[Federation]

	// Incident flight-recorder plane (PR 10): the adaptive trace-rate
	// boost (a denser 1-in-N applied while now < traceBoostUntil), the
	// bounded log ring, and the flight recorder itself.
	traceBoostN     atomic.Int64
	traceBoostUntil atomic.Int64 // unix nanos; 0 = no boost armed
	logring         atomic.Pointer[LogRing]
	flight          atomic.Pointer[FlightRecorder]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// attach is the registry's attach-once step: it returns the value p holds,
// or stores and returns a fresh one from mk. fresh is true only for the
// caller whose value was stored — it wires what a new attachment needs;
// a caller that loses the race gets the winner's value.
func attach[T any](p *atomic.Pointer[T], mk func() *T) (v *T, fresh bool) {
	if v = p.Load(); v != nil {
		return v, false
	}
	if v = mk(); p.CompareAndSwap(nil, v) {
		return v, true
	}
	return p.Load(), false
}

// instrument returns the named instrument, registering mk() under a name
// not yet in use. It returns nil (a no-op handle) on a nil registry or if
// the name is already a different instrument type.
func instrument[T any](r *Registry, name string, mk func() *T) *T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if !ok {
		m = mk()
		r.metrics[name] = m
	}
	v, _ := m.(*T)
	return v
}

// Counter returns the named counter, registering it on first use. Returns
// nil (a no-op handle) on a nil registry or if the name is already a
// different instrument type.
func (r *Registry) Counter(name string) *Counter {
	return instrument(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return instrument(r, name, func() *Gauge { return &Gauge{} })
}

// GaugeFunc registers fn as the named gauge, evaluated at snapshot time —
// the zero-hot-path-cost mirror for statistics a component already keeps.
// Re-registering a name replaces the function (a restarted component
// re-mirrors itself). No-op on a nil registry or nil fn.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = fn
}

// Histogram returns the named histogram, registering it on first use with
// the given bucket bounds (nil bounds = LatencyBuckets). Subsequent calls
// return the existing histogram regardless of bounds, so components
// sharing a name share the instrument.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	return instrument(r, name, func() *Histogram {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		return newHistogram(bounds)
	})
}

// slot is one registered instrument under its name.
type slot struct {
	name string
	m    any
}

// slots copies every registered instrument under the lock, for walkers
// (Snapshot, the Prometheus renderer) that must evaluate GaugeFuncs and
// read histograms outside it.
func (r *Registry) slots() []slot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]slot, 0, len(r.metrics))
	for n, m := range r.metrics {
		out = append(out, slot{n, m})
	}
	return out
}

// EnableTracing turns on deterministic 1-in-n span-trace sampling for
// every component attached to this registry and allocates the bounded
// ring completed traces land in (ringCap <= 0 selects DefaultTraceRing).
// n == 1 traces every event; n <= 0 disables. Collectors re-read the
// effective rate per batch, so a later BoostTracing densifies sampling
// on a live deployment. No-op on a nil registry.
func (r *Registry) EnableTracing(n, ringCap int) {
	if r == nil {
		return
	}
	r.traceN.Store(int64(n))
	if n > 0 {
		attach(&r.traces, func() *TraceRing { return NewTraceRing(ringCap) })
	}
}

// TraceSampleN returns the effective trace sampling rate (1-in-N; 0 =
// tracing off): the base rate from EnableTracing, or the denser boosted
// rate while a BoostTracing window is active. Safe on a nil registry.
func (r *Registry) TraceSampleN() int {
	if r == nil {
		return 0
	}
	base := int(r.traceN.Load())
	if base <= 0 {
		return base
	}
	if b := r.boostN(); b > 0 && b < base {
		return b
	}
	return base
}

// boostN returns the armed boost rate while its window is open, else 0.
func (r *Registry) boostN() int {
	if until := r.traceBoostUntil.Load(); until == 0 || time.Now().UnixNano() >= until {
		return 0
	}
	return int(r.traceBoostN.Load())
}

// BoostTracing densifies span sampling to 1-in-n for the next window d —
// the adaptive-sampling half of the incident flight recorder: on a
// health transition the rate jumps (e.g. 1-in-1024 → 1-in-16) so the
// incident window holds dense end-to-end traces, then decays back to the
// base rate when the window expires (or earlier via ClearTraceBoost on
// recovery). The boost never arms a disabled tracer — with tracing off
// the wire stays untraced — and never loosens sampling below the base
// rate. Returns whether the boost armed. Safe on a nil registry.
func (r *Registry) BoostTracing(n int, d time.Duration) bool {
	if r == nil || n <= 0 || d <= 0 || r.traceN.Load() <= 0 {
		return false
	}
	r.traceBoostN.Store(int64(n))
	r.traceBoostUntil.Store(time.Now().Add(d).UnixNano())
	return true
}

// ClearTraceBoost ends an active sampling boost immediately — the
// decay-on-recovery path. Safe on a nil registry.
func (r *Registry) ClearTraceBoost() {
	if r == nil {
		return
	}
	r.traceBoostUntil.Store(0)
}

// TraceBoostActive reports whether a sampling boost is in effect right
// now. Safe on a nil registry.
func (r *Registry) TraceBoostActive() bool {
	return r != nil && r.traceN.Load() > 0 && r.boostN() > 0
}

// Traces returns the completed-trace ring (nil until EnableTracing). Safe
// on a nil registry.
func (r *Registry) Traces() *TraceRing {
	if r == nil {
		return nil
	}
	return r.traces.Load()
}

// Sampler returns the attached background sampler (nil until
// StartSampler). Safe on a nil registry.
func (r *Registry) Sampler() *Sampler {
	if r == nil {
		return nil
	}
	return r.sampler.Load()
}

// Health returns the attached health model (nil until SetHealth). Safe on
// a nil registry.
func (r *Registry) Health() *Health {
	if r == nil {
		return nil
	}
	return r.health.Load()
}

// SetHealth attaches the health model served at /healthz. No-op on a nil
// registry.
func (r *Registry) SetHealth(h *Health) {
	if r == nil {
		return
	}
	r.health.Store(h)
}

// Snapshot returns the registry's current state: counter and gauge values
// as float64, histograms as HistogramSnapshot. The map is freshly built
// and safe for the caller to retain. Nil registries snapshot empty.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return map[string]any{}
	}
	slots := r.slots()
	out := make(map[string]any, len(slots))
	// GaugeFuncs run outside the registry lock: they may themselves take
	// component locks (stats snapshots), and holding ours across arbitrary
	// callbacks invites deadlock.
	for _, s := range slots {
		switch m := s.m.(type) {
		case *Counter:
			out[s.name] = float64(m.Value())
		case *Gauge:
			out[s.name] = float64(m.Value())
		case func() float64:
			out[s.name] = m()
		case *Histogram:
			out[s.name] = m.Snapshot()
		}
	}
	return out
}

// WriteText renders the snapshot as sorted "name value" lines — the
// one-shot dump surface (fsmon -status, exit dumps).
func (r *Registry) WriteText(w io.Writer) error {
	return WriteSnapshotText(w, r.Snapshot())
}

// WriteSnapshotText renders any snapshot map (local, or fetched over HTTP
// by FetchSnapshot) as sorted "name value" lines. Histograms render as one
// line with their summary fields.
func WriteSnapshotText(w io.Writer, snap map[string]any) error {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var err error
		switch v := snap[n].(type) {
		case HistogramSnapshot:
			_, err = fmt.Fprintf(w, "%s count=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%d overflow=%d\n",
				n, v.Count, v.Mean, v.P50, v.P95, v.P99, v.Max, v.Overflow)
		case float64:
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				_, err = fmt.Fprintf(w, "%s %d\n", n, int64(v))
			} else {
				_, err = fmt.Fprintf(w, "%s %g\n", n, v)
			}
		default:
			_, err = fmt.Fprintf(w, "%s %v\n", n, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Stamp returns the current wall clock as a unix-nanosecond trace stamp —
// what collectors attach to published event batches at Changelog capture.
func Stamp() int64 { return time.Now().UnixNano() }

// SinceStampUS converts a capture stamp to elapsed microseconds now; it
// returns -1 for the zero stamp (untraced batch). Negative elapsed values
// (clock steps) clamp to 0 so histograms stay sane.
func SinceStampUS(stamp int64) int64 {
	if stamp == 0 {
		return -1
	}
	us := (time.Now().UnixNano() - stamp) / 1e3
	if us < 0 {
		return 0
	}
	return us
}
