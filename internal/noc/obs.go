package noc

import (
	"fmt"

	"memnet/internal/obs"
)

// Instrument attaches the network to a run's collectors. Call it after the
// topology is finalized and before traffic starts. Every collector is
// passive, and with one off its hooks cost a nil check (0 allocs/flit-hop
// on the disabled path, pinned by benchmark).
//
//   - Audit: the "noc" conservation checker (see audit).
//   - Trace: a "noc/fault" track carrying fault and recovery instants:
//     retransmissions, retry exhaustion and link failures.
//   - Metrics: per-channel flit utilization (busy cycles over epoch
//     cycles), per-router VC-buffer occupancy, network-wide injected,
//     retired and link-retry rates and, when the topology has overlay
//     pass-through chains, the pass-hop rate. Gauges are sampled at window
//     boundaries only, so per-flit event volume never enters the trace.
//   - Prof: the latency-attribution profiler, sized to the topology.
func (n *Network) Instrument(p obs.Probe) {
	if p.Audit != nil {
		p.Audit.Register("noc", n.audit)
	}
	if p.Trace != nil {
		n.faultTrack = p.Trace.NewTrack("noc/fault")
	}
	if sm := p.Metrics; sm != nil {
		epochCycles := float64(sm.Epoch()) / float64(n.clk.Period())
		if epochCycles <= 0 {
			epochCycles = 1
		}
		sm.Rate("noc.injected", func() float64 { return float64(n.flitsInjected) }, 1)
		sm.Rate("noc.retired", func() float64 { return float64(n.flitsRetired) }, 1)
		sm.Rate("noc.link_retries", func() float64 { return float64(n.linkRetries) }, 1)
		for _, c := range n.channels {
			c := c
			sm.Rate(fmt.Sprintf("noc/ch%d.util", c.index),
				func() float64 { return float64(c.busyCycles) }, 1/epochCycles)
		}
		for _, r := range n.routers {
			r := r
			sm.Gauge(fmt.Sprintf("noc/r%d.vcbuf", r.id),
				func() float64 { return float64(r.BufferedFlits()) })
		}
		for _, c := range n.channels {
			if c.passNext != nil {
				sm.Rate("noc/overlay.pass", func() float64 { return n.Stats.PassHops.Sum() }, 1)
				break
			}
		}
	}
	if p.Prof != nil {
		np := p.Prof.Net
		period := int64(n.clk.Period())
		np.Configure(period,
			int64(n.cfg.SerDesCycles)*period,
			int64(n.cfg.WireCycles)*period,
			int64(n.cfg.PassThrough+n.cfg.WireCycles)*period,
			n.cfg.Classes)
		for _, r := range n.routers {
			np.AddRouter(len(r.ports), n.totalVCs())
		}
		n.prof = np
	}
}
