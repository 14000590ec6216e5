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

// newStoreTel creates a store's hot-path handles under prefix (e.g.
// "fsmon.store.p0"): append/flush latency histograms and the journal's
// byte and error counters.
func newStoreTel(reg *telemetry.Registry, prefix string) storeTel {
	return storeTel{
		appendUS:      reg.Histogram(prefix+".append_us", nil),
		flushUS:       reg.Histogram(prefix+".flush_us", nil),
		journalBytes:  reg.Counter(prefix + ".journal_bytes"),
		journalErrors: reg.Counter(prefix + ".journal_errors"),
	}
}

// registerStats mirrors the Stats counters stats reads (retained, reported,
// appended, purged, evicted, next_seq) as GaugeFuncs under prefix.
func registerStats(reg *telemetry.Registry, prefix string, stats func() Stats) {
	reg.GaugeFunc(prefix+".retained", func() float64 { return float64(stats().Retained) })
	reg.GaugeFunc(prefix+".reported", func() float64 { return float64(stats().Reported) })
	reg.GaugeFunc(prefix+".appended", func() float64 { return float64(stats().Appended) })
	reg.GaugeFunc(prefix+".purged", func() float64 { return float64(stats().Purged) })
	reg.GaugeFunc(prefix+".evicted", func() float64 { return float64(stats().Evicted) })
	reg.GaugeFunc(prefix+".next_seq", func() float64 { return float64(stats().NextSeq) })
}

// RegisterTelemetry mirrors the store into reg under prefix (e.g.
// "fsmon.core.store"): the hot-path handles plus GaugeFuncs over the
// existing Stats counters. No-op when reg is nil. Call before the store
// starts taking appends.
func (s *Store) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	tel := newStoreTel(reg, prefix)
	s.mu.Lock()
	s.tel = tel
	s.mu.Unlock()
	registerStats(reg, prefix, s.Stats)
}

// RegisterTelemetry mirrors every partition under "<prefix>.p<i>", held or
// not, plus engine-wide aggregates under the bare prefix. A partition's
// Stats gauges read it while it is held and 0 once it is released. aud,
// when non-nil, counts every append against its partition's flow and
// checks it on the partition's sequence lane. The engine keeps the
// handles: every held partition takes its own now, and each partition
// OpenPartition opens later takes its own then. Call once, before the
// engine takes appends. No-op when reg is nil.
func (s *Sharded) RegisterTelemetry(reg *telemetry.Registry, prefix string, aud *telemetry.Audit) {
	if reg == nil {
		return
	}
	tels := make([]storeTel, s.parts)
	for i := range tels {
		p := fmt.Sprintf("%s.p%d", prefix, i)
		tels[i] = newStoreTel(reg, p)
		tels[i].aud, tels[i].auditPart = aud, i
		registerStats(reg, p, func() Stats {
			if st := s.Partition(i); st != nil {
				return st.Stats()
			}
			return Stats{}
		})
	}
	s.mu.Lock()
	s.tels = tels
	for i, st := range s.held() {
		if st != nil {
			st.mu.Lock()
			st.tel = tels[i]
			st.mu.Unlock()
		}
	}
	s.mu.Unlock()
	reg.GaugeFunc(prefix+".partitions", func() float64 { return float64(s.parts) })
	reg.GaugeFunc(prefix+".retained", func() float64 { return float64(s.Stats().Retained) })
	reg.GaugeFunc(prefix+".appended", func() float64 { return float64(s.Stats().Appended) })
}
