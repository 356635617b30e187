// Package pcie models the conventional multi-GPU interconnect: a PCIe
// switch in a star topology connecting the host CPU and the discrete GPUs
// (Fig. 1a of the paper). Each endpoint has one x16 PCIe v3.0 link of
// 15.75 GB/s per direction (Section VI-A).
//
// Two traffic types share the links: bulk DMA (cudaMemcpy) and fine-grained
// remote accesses (UVA peer-to-peer loads/stores and zero-copy host-memory
// accesses). Each transfer serializes on the source's upstream link and the
// destination's downstream link, plus per-TLP header overhead and a fixed
// propagation latency.
package pcie

import (
	"fmt"

	"memnet/internal/obs"
	"memnet/internal/prof"
	"memnet/internal/sim"
	"memnet/internal/stats"
)

// Config describes the fabric.
type Config struct {
	BytesPerSec   float64  // per direction per link (15.75 GB/s)
	Latency       sim.Time // end-to-end propagation + switch latency
	TLPHeader     int      // header bytes added to each transfer's payload
	MaxPayload    int      // payload bytes per TLP (transfers are chunked)
	SwitchLatency sim.Time // additional latency when crossing the switch

	// RetryTimeout is the replay timer for a transfer that draws an
	// injected timeout: the retry fires after RetryTimeout << attempt
	// (bounded exponential backoff). RetryLimit bounds the attempts; a
	// transfer that exhausts its budget is forced through so the fabric
	// cannot livelock.
	RetryTimeout sim.Time
	RetryLimit   int
}

// DefaultConfig returns 16-lane PCIe v3.0 parameters.
func DefaultConfig() Config {
	return Config{
		BytesPerSec:   15.75e9,
		Latency:       500 * sim.Nanosecond,
		TLPHeader:     24,
		MaxPayload:    256,
		SwitchLatency: 100 * sim.Nanosecond,
		RetryTimeout:  10 * sim.Microsecond,
		RetryLimit:    4,
	}
}

// Stats aggregates fabric activity.
type Stats struct {
	Transfers  stats.Counter
	Bytes      stats.Counter // payload bytes moved
	WireBytes  stats.Counter // payload + TLP headers
	Latency    stats.Mean    // per-transfer completion latency (ps)
	LinkBusyPS stats.Counter // total link-busy picoseconds across links
	// Timeouts counts send attempts lost to injected timeouts; each one
	// schedules exactly one retry (the audited balance). RetriesExhausted
	// counts transfers forced through after using their whole budget.
	Timeouts         stats.Counter
	Retries          stats.Counter
	RetriesExhausted stats.Counter
}

type port struct {
	name     string
	upFree   sim.Time // next free time of the endpoint->switch direction
	downFree sim.Time // next free time of the switch->endpoint direction
	// dropNext makes the next n transfers sourced here time out (fault
	// injection); each decrements it and retries after backoff.
	dropNext int
}

// Fabric is one PCIe switch with its endpoint links.
type Fabric struct {
	eng   *sim.Engine
	cfg   Config
	ports []*port

	// rtOpen counts round trips whose response has not been sent yet: every
	// request packet must eventually be paired with exactly one response.
	rtOpen int64
	// retryOpen counts retries scheduled but not yet re-attempted; it must
	// return to zero whenever the fabric drains.
	retryOpen int64

	// traces holds one timeline per endpoint for its outbound transfer
	// spans; empty when tracing is off.
	traces []obs.Track

	Stats Stats
}

// New creates an empty fabric.
func New(eng *sim.Engine, cfg Config) *Fabric {
	return &Fabric{eng: eng, cfg: cfg}
}

// Config returns the fabric parameters.
func (f *Fabric) Config() Config { return f.cfg }

// AddEndpoint attaches an endpoint (CPU or GPU) and returns its port ID.
func (f *Fabric) AddEndpoint(name string) int {
	f.ports = append(f.ports, &port{name: name})
	return len(f.ports) - 1
}

// NumEndpoints returns the endpoint count.
func (f *Fabric) NumEndpoints() int { return len(f.ports) }

// Instrument attaches the fabric to a run's collectors; a nil one leaves
// that part of the fabric inert. Call it after all endpoints are added.
//
//   - Audit: the "pcie" checker. The request/response ledger must never
//     go negative (a double-sent response), and wire bytes must dominate
//     payload bytes since every TLP adds header overhead.
//   - Trace: one track per endpoint, carrying its outbound transfer spans.
//   - Metrics: payload bytes and timeouts per window, and open round
//     trips.
func (f *Fabric) Instrument(p obs.Probe) {
	if p.Audit != nil {
		p.Audit.Register("pcie", func(report func(string)) {
			if f.rtOpen < 0 {
				report(fmt.Sprintf("round-trip ledger negative: %d (response sent twice)", f.rtOpen))
			}
			if f.retryOpen < 0 {
				report(fmt.Sprintf("retry ledger negative: %d (retry ran twice)", f.retryOpen))
			}
			if f.Stats.Retries.Value() != f.Stats.Timeouts.Value() {
				report(fmt.Sprintf("retry/timeout imbalance: %d retries for %d timeouts",
					f.Stats.Retries.Value(), f.Stats.Timeouts.Value()))
			}
			if f.Stats.WireBytes.Value() < f.Stats.Bytes.Value() {
				report(fmt.Sprintf("wire bytes %d below payload bytes %d (header accounting lost)",
					f.Stats.WireBytes.Value(), f.Stats.Bytes.Value()))
			}
		})
	}
	if p.Trace != nil {
		f.traces = make([]obs.Track, len(f.ports))
		for i, pt := range f.ports {
			f.traces[i] = p.Trace.NewTrack("pcie/" + pt.name)
		}
	}
	if sm := p.Metrics; sm != nil {
		sm.Rate("pcie.bytes", func() float64 { return float64(f.Stats.Bytes.Value()) }, 1)
		sm.Rate("pcie.timeouts", func() float64 { return float64(f.Stats.Timeouts.Value()) }, 1)
		sm.Gauge("pcie.open_rt", func() float64 { return float64(f.rtOpen) })
	}
}

// wireTime returns the serialization time of n payload bytes including TLP
// header overhead.
func (f *Fabric) wireTime(n int64) (sim.Time, int64) {
	if n <= 0 {
		return 0, 0
	}
	mp := int64(f.cfg.MaxPayload)
	tlps := (n + mp - 1) / mp
	wire := n + tlps*int64(f.cfg.TLPHeader)
	ps := float64(wire) / f.cfg.BytesPerSec * 1e12
	return sim.Time(ps), wire
}

// InjectTimeout makes the next n transfers sourced at endpoint ep time out
// and enter the retry path (fault injection). Out-of-range arguments are
// ignored.
func (f *Fabric) InjectTimeout(ep, n int) {
	if ep < 0 || ep >= len(f.ports) || n <= 0 {
		return
	}
	f.ports[ep].dropNext += n
}

// Send moves n payload bytes from endpoint src to endpoint dst and
// schedules fn(arg) (if fn is non-nil) as an event when the last byte
// arrives. Transfers on the same links serialize in FIFO order; different
// link pairs proceed in parallel. A transfer hit by an injected timeout is
// retried with bounded exponential backoff; fn still runs exactly once,
// after the attempt that gets through. With a pointer-shaped arg, a
// transfer that draws no timeout allocates nothing.
func (f *Fabric) Send(src, dst int, n int64, fn func(any), arg any) {
	f.sendAttempt(src, dst, n, fn, arg, 0)
}

func (f *Fabric) sendAttempt(src, dst int, n int64, fn func(any), arg any, attempt int) {
	if src == dst {
		panic("pcie: transfer to self")
	}
	if src < 0 || src >= len(f.ports) || dst < 0 || dst >= len(f.ports) {
		panic(fmt.Sprintf("pcie: endpoint out of range (%d -> %d)", src, dst))
	}
	if sp := f.ports[src]; sp.dropNext > 0 {
		if attempt >= f.cfg.RetryLimit || f.cfg.RetryTimeout <= 0 {
			// Budget exhausted: stop consuming the fault and force the
			// transfer through so the endpoint cannot livelock.
			sp.dropNext = 0
			f.Stats.RetriesExhausted.Inc()
		} else {
			sp.dropNext--
			f.Stats.Timeouts.Inc()
			f.Stats.Retries.Inc()
			f.retryOpen++
			if len(f.traces) == len(f.ports) && f.traces[src].Enabled() {
				f.traces[src].Instant(fmt.Sprintf("timeout, retry %d ->%s",
					attempt+1, f.ports[dst].name), f.eng.Now())
			}
			f.eng.After(f.cfg.RetryTimeout<<attempt, func() {
				f.retryOpen--
				f.sendAttempt(src, dst, n, fn, arg, attempt+1)
			})
			return
		}
	}
	now := f.eng.Now()
	ser, wire := f.wireTime(n)
	s, d := f.ports[src], f.ports[dst]
	start := now
	if s.upFree > start {
		start = s.upFree
	}
	if d.downFree > start {
		start = d.downFree
	}
	end := start + ser
	s.upFree = end
	d.downFree = end
	if len(f.traces) == len(f.ports) && f.traces[src].Enabled() {
		// Transfers serialize on the source's upstream link, so the spans
		// on one endpoint track never overlap.
		f.traces[src].Span(fmt.Sprintf("%dB->%s", n, d.name), start, end)
	}
	f.Stats.Transfers.Inc()
	f.Stats.Bytes.Add(n)
	f.Stats.WireBytes.Add(wire)
	f.Stats.LinkBusyPS.Add(2 * int64(ser))
	complete := end + f.cfg.Latency + f.cfg.SwitchLatency
	f.Stats.Latency.Add(float64(complete - now))
	if fn != nil {
		f.eng.AtEvent(complete, fn, arg)
	}
}

// Request opens a round trip: it sends a request of n bytes from src to
// dst and schedules fn(arg) on its arrival, where the destination serves
// it (e.g. the remote GPU's memory access). The destination then closes
// the round trip with exactly one Respond.
func (f *Fabric) Request(src, dst int, n int64, fn func(any), arg any) {
	f.rtOpen++
	f.Send(src, dst, n, fn, arg)
}

// Respond closes a round trip opened by Request: it sends the response of
// n bytes from the serving endpoint src back to dst and schedules fn(arg)
// on its arrival. The ledger closes at the send rather than at delivery,
// so a fire-and-forget response (nil fn) balances without an extra
// completion event.
func (f *Fabric) Respond(src, dst int, n int64, fn func(any), arg any) {
	f.rtOpen--
	f.Send(src, dst, n, fn, arg)
}

// OpenRoundTrips returns the number of round trips whose response has not
// been sent yet.
func (f *Fabric) OpenRoundTrips() int64 { return f.rtOpen }

// ProfSnapshot renders the fabric's counters as a profile section (the
// flush-time snapshot used by internal/prof; no hot-path hooks needed —
// the existing statistics already carry the attribution).
func (f *Fabric) ProfSnapshot() prof.PCIeSection {
	return prof.PCIeSection{
		Transfers:    f.Stats.Transfers.Value(),
		Bytes:        f.Stats.Bytes.Value(),
		WireBytes:    f.Stats.WireBytes.Value(),
		AvgLatencyPS: f.Stats.Latency.Value(),
		LinkBusyPS:   f.Stats.LinkBusyPS.Value(),
		Timeouts:     f.Stats.Timeouts.Value(),
		Retries:      f.Stats.Retries.Value(),
	}
}
