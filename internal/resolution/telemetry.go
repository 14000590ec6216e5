package resolution

import "fsmonitor/internal/telemetry"

// RegisterTelemetry mirrors the processor into reg under prefix (e.g.
// "fsmon.core.resolution"): rename pairing and the processing queue's
// backlog and capacity, which are the DSI channel's. GaugeFuncs over existing counters —
// the event path is untouched. No-op when reg is nil.
func (p *Processor) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.GaugeFunc(prefix+".renames_paired", func() float64 { return float64(p.paired.Load()) })
	reg.GaugeFunc(prefix+".queue_depth", func() float64 { return float64(len(p.src)) })
	reg.GaugeFunc(prefix+".queue_cap", func() float64 { return float64(cap(p.src)) })
}
