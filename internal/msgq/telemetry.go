package msgq

import (
	"fsmonitor/internal/telemetry"
)

// RegisterPubTelemetry mirrors a publish socket into reg under prefix:
// fan-out (attached subscribers), publish count, and subscribers evicted
// past the stall bound. All GaugeFuncs over existing counters — nothing
// added to the publish path. No-op when reg is nil.
func RegisterPubTelemetry(reg *telemetry.Registry, prefix string, p *Pub) {
	if reg == nil || p == nil {
		return
	}
	reg.GaugeFunc(prefix+".subscribers", func() float64 { return float64(p.Subscribers()) })
	reg.GaugeFunc(prefix+".published", func() float64 { return float64(p.Published()) })
	reg.GaugeFunc(prefix+".evicted", func() float64 { return float64(p.Evicted()) })
}

// RegisterSubTelemetry mirrors a subscribe socket into reg under prefix:
// receive count and the live receive-queue depth against its capacity.
// No-op when reg is nil.
func RegisterSubTelemetry(reg *telemetry.Registry, prefix string, s *Sub) {
	if reg == nil || s == nil {
		return
	}
	reg.GaugeFunc(prefix+".received", func() float64 { return float64(s.Received()) })
	reg.GaugeFunc(prefix+".queue_depth", func() float64 { return float64(s.Depth()) })
	reg.GaugeFunc(prefix+".queue_cap", func() float64 { return float64(s.Cap()) })
}
