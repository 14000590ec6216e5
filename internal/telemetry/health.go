package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog health model: threshold rules evaluated over the sampler's
// retained series turn raw metrics into per-tier ok/degraded/stalled
// verdicts with reasons — the "which tier is falling behind" answer that a
// point-in-time snapshot cannot give and the consumer's e2e histogram
// gives only after the damage. Served at /healthz (200/503 for
// orchestrators), printed by fsmon -status, and logged as structured slog
// warnings on transitions.

// Status is a tier's health verdict, ordered by severity.
type Status int

const (
	// StatusOK: no rule fired.
	StatusOK Status = iota
	// StatusDegraded: a pressure signal fired (queue saturation, lag or
	// backlog growth, error spike) but data still flows.
	StatusDegraded
	// StatusStalled: a stage takes input and emits nothing — the tier is
	// wedged and /healthz reports 503.
	StatusStalled
)

// statusNames is each status's string form, indexed by Status.
var statusNames = [...]string{"ok", "degraded", "stalled"}

func (s Status) String() string {
	if s >= 0 && int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// MarshalJSON renders the status as its string form ("ok", "degraded",
// "stalled") so /healthz bodies read without a decoder ring.
func (s Status) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the string form (the FetchHealth path).
func (s *Status) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	for i, name := range statusNames {
		if str == name {
			*s = Status(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown health status %q", str)
}

// Verdict is one tier's evaluated health.
type Verdict struct {
	Tier    string   `json:"tier"`
	Status  Status   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}

// HealthReport is one full evaluation: the worst tier status overall plus
// every instrumented tier's verdict.
type HealthReport struct {
	Status    Status    `json:"status"`
	Tiers     []Verdict `json:"tiers"`
	SampledAt time.Time `json:"sampled_at"`
	Samples   int       `json:"samples"`
}

// HealthOptions tunes the built-in rules.
type HealthOptions struct {
	// Windows is K, the consecutive sample intervals a condition must
	// hold before it fires (default 3). Stall, saturation, and growth
	// rules all require K windows so one slow scrape does not page.
	Windows int
	// ErrorRatePerSec is the fid2path real-error rate above which the
	// stale-FID/error spike rule fires (default 1/s).
	ErrorRatePerSec float64
	// HeartbeatLapseMS is the cluster-node heartbeat age (milliseconds
	// since the node last heard any peer) above which the
	// heartbeat-lapse rule flags the cluster tier degraded (default
	// 1000ms). Single-node clusters never lapse: a node with no peers
	// reports zero age.
	HeartbeatLapseMS float64
	// Logger receives transition warnings (tier ok→degraded→stalled and
	// recoveries); nil discards.
	Logger *slog.Logger
	// SamplerHistory is the sampler retention depth (samples) callers
	// that build the sampler alongside the health model should use
	// (0 = DefaultSeriesLen). NewHealth itself never resizes an existing
	// sampler; the option rides here so one struct configures the whole
	// watchdog surface (fsmon -metrics-history).
	SamplerHistory int
}

// saturationFraction is the queue depth/capacity ratio the
// queue-saturation rule treats as saturated.
const saturationFraction = 0.9

// Transition is one tier's status change between consecutive
// evaluations, as delivered to the registry's flight recorder.
type Transition struct {
	Tier    string
	From    Status
	To      Status
	Reasons []string
	// Report is the full evaluation the transition was observed in, so
	// the recorder need not re-evaluate to see the surrounding verdicts.
	Report HealthReport
}

func (o HealthOptions) withDefaults() HealthOptions {
	if o.Windows <= 0 {
		o.Windows = 3
	}
	if o.ErrorRatePerSec <= 0 {
		o.ErrorRatePerSec = 1
	}
	if o.HeartbeatLapseMS <= 0 {
		o.HeartbeatLapseMS = 1000
	}
	return o
}

// Health evaluates rules over a sampler. All methods are safe for
// concurrent use and nil-safe.
type Health struct {
	s      *Sampler
	opts   HealthOptions
	slog   *slog.Logger
	closed atomic.Bool // the sampler's tick no longer evaluates this model

	mu   sync.Mutex
	last map[string]Status // tier → previous status, for transition logs
}

// NewHealth builds a health model over the sampler with the built-in rule
// set:
//
//   - pipeline stage stall: a stage's input rate > 0 while its output
//     rate == 0 for K windows (Evaluate reports the tier stalled)
//   - queue saturation: a subscription queue at >= 90% of capacity for K
//     windows
//   - consumer cursor lag growth: a partition's cursor lag strictly
//     growing for K windows
//   - changelog backlog growth: a collector's changelog lag strictly
//     growing for K windows
//   - stale-FID / resolution error spike: fid2path real-error rate above
//     ErrorRatePerSec over the last window
//   - subscriber eviction: ".pub.evicted" or ".iface.evicted" moved in
//     the last window
//   - cluster heartbeat lapse: an aggregator node's peer-heartbeat age
//     above HeartbeatLapseMS in the newest sample — a member is late and
//     handoff may be imminent
//   - conservation violation: the delivery-conservation auditor detected
//     a sequence gap or duplicate append (fsmon.audit.violations > 0) —
//     events were lost or double-stored somewhere between capture and
//     delivery
//
// Rules discover their metrics by name pattern from the newest sample, so
// one model covers any deployment shape (N MDTs, P partitions) without
// per-component wiring. Attached to the sampler's registry (SetHealth),
// the model is evaluated on every sampler tick.
func NewHealth(s *Sampler, opts HealthOptions) *Health {
	return &Health{
		s:    s,
		opts: opts.withDefaults(),
		slog: ComponentLogger(opts.Logger, "health"),
		last: map[string]Status{},
	}
}

// Close stops the sampler's tick from evaluating this model; Evaluate
// (and /healthz) keep working on demand. Safe on a nil receiver and safe
// to call more than once.
func (h *Health) Close() {
	if h != nil {
		h.closed.Store(true)
	}
}

// Evaluate runs every rule over one copy of the sampler's current history
// and returns the merged per-tier report. Transitions against the
// previous evaluation are logged (warn on worsening, info on recovery).
// Safe on a nil receiver (empty, ok report).
func (h *Health) Evaluate() HealthReport {
	rep := HealthReport{SampledAt: time.Now()}
	if h == nil {
		return rep
	}
	v := newView(h.s.History())
	rep.Samples = len(v.hist)
	// Every instrumented tier gets a verdict, default ok — "no news" and
	// "not monitored" must not look alike.
	vs := verdicts{}
	for _, name := range v.names {
		vs.tier(tierOf(name))
	}
	for _, rule := range rules {
		rule(v, h.opts, vs)
	}
	tiers := make([]Verdict, 0, len(vs))
	for _, vd := range vs {
		tiers = append(tiers, *vd)
		if vd.Status > rep.Status {
			rep.Status = vd.Status
		}
	}
	sort.Slice(tiers, func(i, j int) bool { return tiers[i].Tier < tiers[j].Tier })
	rep.Tiers = tiers
	// Mirror every verdict as a fsmon.health.<tier> gauge (0=ok,
	// 1=degraded, 2=stalled) so Prometheus scrapes and the federated
	// cluster view can alert on tier health without parsing /healthz.
	if reg := h.registry(); reg != nil {
		for _, vd := range tiers {
			reg.Gauge("fsmon.health." + vd.Tier).Set(int64(vd.Status))
		}
	}
	h.notifyTransitions(tiers, rep)
	return rep
}

// registry returns the registry underneath the sampler this model
// evaluates (nil when unwired).
func (h *Health) registry() *Registry {
	if h == nil || h.s == nil {
		return nil
	}
	return h.s.reg
}

// notifyTransitions compares the evaluation against the previous one,
// logs every status change under the lock, then notifies the registry's
// flight recorder outside it — the recorder re-enters the registry
// (snapshot, evaluate), and holding h.mu across that invites deadlock.
func (h *Health) notifyTransitions(tiers []Verdict, rep HealthReport) {
	h.mu.Lock()
	var fired []Transition
	for _, v := range tiers {
		prev, seen := h.last[v.Tier]
		if seen && prev == v.Status {
			continue
		}
		h.last[v.Tier] = v.Status
		switch {
		case v.Status > StatusOK:
			h.slog.Warn("tier health transition",
				"tier", v.Tier, "from", prev.String(), "to", v.Status.String(),
				"reasons", strings.Join(v.Reasons, "; "))
		case seen: // recovery; a fresh ok tier is not news
			h.slog.Info("tier recovered", "tier", v.Tier, "from", prev.String())
		default: // fresh ok tier: not a transition
			continue
		}
		fired = append(fired, Transition{
			Tier: v.Tier, From: prev, To: v.Status, Reasons: v.Reasons, Report: rep,
		})
	}
	h.mu.Unlock()
	fr := h.registry().Flight()
	for _, t := range fired {
		fr.OnTransition(t)
	}
}

// verdicts accumulates one evaluation's per-tier verdicts.
type verdicts map[string]*Verdict

// tier returns the tier's verdict, creating an ok one on first use.
func (vs verdicts) tier(name string) *Verdict {
	v, ok := vs[name]
	if !ok {
		v = &Verdict{Tier: name}
		vs[name] = v
	}
	return v
}

// flag records one rule hit against the tier of the named metric.
func (vs verdicts) flag(metric string, st Status, reason string) {
	v := vs.tier(tierOf(metric))
	v.Status = max(v.Status, st)
	v.Reasons = append(v.Reasons, reason)
}

// --- built-in rules ---

// rules is the built-in rule set, evaluated in order (a tier's reasons
// list in rule order).
var rules = []func(view, HealthOptions, verdicts){
	stallRule,
	saturationRule,
	growthRule(".cursor_lag.", "consumer cursor lag growing"),
	growthRule(".changelog_lag", "changelog backlog growing"),
	rateRule(".fid2path_errors", "errors", func(o HealthOptions) float64 { return o.ErrorRatePerSec }),
	// Any subscriber eviction; a store's ".p<i>.evicted" is retention's work.
	rateRule(".pub.evicted", "evictions", nil),
	rateRule(".iface.evicted", "evictions", nil),
	heartbeatLapseRule,
	conservationRule,
}

// stallRule (pipeline-stall): for every pipeline stage mirrored as
// "<prefix>.in"/".out", K consecutive windows of positive input deltas
// with zero output deltas means the stage accepts work and emits nothing
// — stalled.
func stallRule(v view, o HealthOptions, vs verdicts) {
	for _, name := range v.names {
		if !strings.HasSuffix(name, ".in") || !strings.Contains(name, ".pipeline.") {
			continue
		}
		stage := strings.TrimSuffix(name, ".in")
		in, out := v.recent(name, o.Windows+1), v.recent(stage+".out", o.Windows+1)
		if len(in) <= o.Windows || len(out) <= o.Windows {
			continue
		}
		stalled := true
		for i := 0; i < o.Windows && stalled; i++ {
			stalled = in[i].v-in[i+1].v > 0 && out[i].v-out[i+1].v == 0
		}
		if stalled {
			vs.flag(name, StatusStalled,
				fmt.Sprintf("stage %s: input flowing, no output for %d windows", stage, o.Windows))
		}
	}
}

// saturationRule (queue-saturation): a subscription queue holding >= 90%
// of its capacity for K consecutive samples is back-pressuring its
// publisher.
func saturationRule(v view, o HealthOptions, vs verdicts) {
	for _, name := range v.names {
		if !strings.HasSuffix(name, ".queue_depth") {
			continue
		}
		depth := v.recent(name, o.Windows)
		caps := v.recent(strings.TrimSuffix(name, ".queue_depth")+".queue_cap", 1)
		if len(depth) < o.Windows || len(caps) == 0 || caps[0].v <= 0 {
			continue
		}
		qcap, saturated := caps[0].v, true
		for i := 0; i < o.Windows && saturated; i++ {
			saturated = depth[i].v/qcap >= saturationFraction
		}
		if saturated {
			vs.flag(name, StatusDegraded, fmt.Sprintf("%s at %.0f%% of capacity for %d windows",
				name, 100*depth[0].v/qcap, o.Windows))
		}
	}
}

// growthRule builds a rule (cursor-lag-growth, changelog-backlog-growth)
// that fires when every one of the last K deltas of a matching series is
// positive — monotone growth of a quantity that should drain.
func growthRule(match, what string) func(view, HealthOptions, verdicts) {
	return func(v view, o HealthOptions, vs verdicts) {
		for _, name := range v.names {
			if !strings.Contains(name, match) {
				continue
			}
			pts := v.recent(name, o.Windows+1)
			growing := len(pts) > o.Windows
			for i := 0; i < o.Windows && growing; i++ {
				growing = pts[i].v-pts[i+1].v > 0
			}
			if growing {
				vs.flag(name, StatusDegraded, fmt.Sprintf("%s: %s for %d windows", name, what, o.Windows))
			}
		}
	}
}

// rateRule builds a rule (resolution-error-spike, subscriber-eviction)
// that fires when a counter ending in suffix rose faster than limit per
// second (nil: 0) over the last window. Stale-FID churn that Algorithm 1
// cannot absorb surfaces as fid2path real errors.
func rateRule(suffix, what string, limit func(HealthOptions) float64) func(view, HealthOptions, verdicts) {
	return func(v view, o HealthOptions, vs verdicts) {
		var bound float64
		if limit != nil {
			bound = limit(o)
		}
		for _, name := range v.names {
			if !strings.HasSuffix(name, suffix) {
				continue
			}
			pts := v.recent(name, 2)
			if len(pts) < 2 {
				continue
			}
			dt := pts[0].t.Sub(pts[1].t).Seconds()
			if rate := (pts[0].v - pts[1].v) / dt; dt > 0 && rate > bound {
				vs.flag(name, StatusDegraded,
					fmt.Sprintf("%s: %.1f %s/s (threshold %.1f)", name, rate, what, bound))
			}
		}
	}
}

// newest reads a metric's newest point (0 when absent).
func (v view) newest(name string) float64 {
	if pts := v.recent(name, 1); len(pts) > 0 {
		return pts[0].v
	}
	return 0
}

// conservationRule (conservation-violation): the delivery-conservation
// auditor counted a sequence gap or duplicate store append. The detectors
// fire at the moment of the violating append/delivery, so the rule sees
// it in the very next sample — within one sampler window. The finding
// latches (the counter never decreases): lost events stay lost, and an
// operator clearing the condition restarts the deployment, not the rule.
func conservationRule(v view, _ HealthOptions, vs verdicts) {
	for _, name := range v.names {
		if !strings.HasSuffix(name, ".violations") || !strings.Contains(name, ".audit.") {
			continue
		}
		if n := v.newest(name); n > 0 {
			base := strings.TrimSuffix(name, ".violations")
			vs.flag(name, StatusDegraded, fmt.Sprintf("%s: %.0f conservation violations (gaps=%.0f dups=%.0f) — delivery is not lossless",
				name, n, v.newest(base+".seq_gaps"), v.newest(base+".seq_dups")))
		}
	}
}

// heartbeatLapseRule (cluster-heartbeat-lapse): a cluster node reporting a
// peer-heartbeat age above the threshold has lost contact with at least
// one member — the membership protocol is about to declare that peer dead
// and hand its partitions off. A single point suffices (age is already a
// duration, not a rate): by the time K windows of silence accumulate the
// handoff has happened.
func heartbeatLapseRule(v view, o HealthOptions, vs verdicts) {
	for _, name := range v.names {
		if !strings.HasSuffix(name, ".heartbeat_age_ms") {
			continue
		}
		if age := v.newest(name); age > o.HeartbeatLapseMS {
			vs.flag(name, StatusDegraded,
				fmt.Sprintf("%s: peer heartbeat %.0fms old (threshold %.0fms)", name, age, o.HeartbeatLapseMS))
		}
	}
}
