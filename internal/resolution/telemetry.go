package resolution

import "fsmonitor/internal/telemetry"

// RegisterTelemetry mirrors the processor into reg under prefix (e.g.
// "fsmon.core.resolution"): rename pairing, the processing-queue backlog,
// and the per-stage pipeline view. All GaugeFuncs over existing counters —
// the event path is untouched. No-op when reg is nil.
func (p *Processor) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.GaugeFunc(prefix+".renames_paired", func() float64 { return float64(p.paired.Load()) })
	reg.GaugeFunc(prefix+".queue_depth", func() float64 { return float64(p.queue.Depth()) })
	p.pipe.RegisterTelemetry(reg, prefix+".pipeline")
}
