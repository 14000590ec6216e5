package eventstore

import (
	"fmt"

	"fsmonitor/internal/telemetry"
)

// storeTel holds a Store's telemetry handles. All fields are nil when
// telemetry is off; every handle method is nil-safe, so the hot path only
// pays the handle's own nil branch.
type storeTel struct {
	appendUS      *telemetry.Histogram // Append/AppendBlock wall time
	flushUS       *telemetry.Histogram // journal buffer flush / fsync time
	journalBytes  *telemetry.Counter   // bytes appended to the journal
	journalErrors *telemetry.Counter   // 1 once a journal write or flush has failed

	// aud, when non-nil, receives delivery-conservation counts: every
	// append is added to auditPart's stored flow and checked against the
	// partition's sequence lane.
	aud       *telemetry.Audit
	auditPart int
}

// auditAppend reports one append — n events ending at seq last on a lane
// advancing by stride — to the attached auditor. Nil-safe like the other
// handles.
func (t *storeTel) auditAppend(last uint64, n int, stride uint64) {
	if t.aud == nil || n <= 0 {
		return
	}
	t.aud.Stored(t.auditPart, n)
	t.aud.StoreSeq(t.auditPart, last-uint64(n-1)*stride, n, stride)
}

// RegisterTelemetry mirrors the store into reg under prefix (e.g.
// "fsmon.store.p0"): append/flush latency histograms on the hot path,
// plus GaugeFuncs over the existing Stats counters (retained, reported,
// appended, purged, evicted, next_seq). No-op when reg is nil. Call
// before the store starts taking appends.
func (s *Store) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	tel := storeTel{
		appendUS:      reg.Histogram(prefix+".append_us", nil),
		flushUS:       reg.Histogram(prefix+".flush_us", nil),
		journalBytes:  reg.Counter(prefix + ".journal_bytes"),
		journalErrors: reg.Counter(prefix + ".journal_errors"),
	}
	s.mu.Lock()
	// Preserve an auditor attached before the mirror: SetAudit and
	// RegisterTelemetry may run in either order.
	tel.aud = s.tel.aud
	tel.auditPart = s.tel.auditPart
	s.tel = tel
	s.mu.Unlock()
	reg.GaugeFunc(prefix+".retained", func() float64 { return float64(s.Stats().Retained) })
	reg.GaugeFunc(prefix+".reported", func() float64 { return float64(s.Stats().Reported) })
	reg.GaugeFunc(prefix+".appended", func() float64 { return float64(s.Stats().Appended) })
	reg.GaugeFunc(prefix+".purged", func() float64 { return float64(s.Stats().Purged) })
	reg.GaugeFunc(prefix+".evicted", func() float64 { return float64(s.Stats().Evicted) })
	reg.GaugeFunc(prefix+".next_seq", func() float64 { return float64(s.Stats().NextSeq) })
}

// SetAudit attaches a delivery-conservation auditor: every append is
// counted against partition part's flow and checked on its sequence lane.
// Call before the store starts taking appends (same contract as
// RegisterTelemetry). No-op when aud is nil.
func (s *Store) SetAudit(aud *telemetry.Audit, part int) {
	if aud == nil {
		return
	}
	s.mu.Lock()
	s.tel.aud = aud
	s.tel.auditPart = part
	s.mu.Unlock()
}

// SetAudit attaches an auditor to every held shard, each on its own
// partition lane, and to every partition opened later. No-op when aud is
// nil.
func (s *Sharded) SetAudit(aud *telemetry.Audit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aud = aud
	for i, sh := range s.held() {
		if sh != nil {
			sh.SetAudit(aud, i)
		}
	}
}

// RegisterTelemetry mirrors every held shard under "<prefix>.p<i>" — the
// per-partition append/fsync latency and journal-byte surface — plus
// engine-wide aggregates under the bare prefix. No-op when reg is nil.
func (s *Sharded) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	for i, sh := range s.held() {
		if sh != nil {
			sh.RegisterTelemetry(reg, fmt.Sprintf("%s.p%d", prefix, i))
		}
	}
	reg.GaugeFunc(prefix+".partitions", func() float64 { return float64(s.parts) })
	reg.GaugeFunc(prefix+".retained", func() float64 { return float64(s.Stats().Retained) })
	reg.GaugeFunc(prefix+".appended", func() float64 { return float64(s.Stats().Appended) })
}
