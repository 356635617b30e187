package obs

import (
	"memnet/internal/audit"
	"memnet/internal/prof"
)

// Probe is one run's set of collectors, handed to every component through
// its Instrument method. A nil field means that collector is off; the zero
// Probe is the plain, uninstrumented run. Every collector is passive, so a
// run's events and results are identical with any of them on or off.
type Probe struct {
	Audit   *audit.Registry // invariant checkers
	Trace   *Tracer         // simulated-time timeline
	Metrics *Sampler        // windowed gauges
	Prof    *prof.Run       // latency attribution
}
