// Package hmc models a Hybrid Memory Cube: 16 vaults of 16 banks each, a
// per-vault FR-FCFS memory scheduler with a 16-entry request queue
// (Table I), and logic-layer atomic units (Section III-D: SKE moves atomic
// operations from the GPU's L2 to the HMC logic die, next to the vault
// controllers).
//
// The HMC's logic-layer switch itself is modeled by the noc package (each
// HMC is a network router); this package models what happens after a
// request packet is ejected toward the vaults.
package hmc

import (
	"fmt"

	"memnet/internal/dram"
	"memnet/internal/mem"
	"memnet/internal/obs"
	"memnet/internal/prof"
	"memnet/internal/sim"
	"memnet/internal/stats"
)

// SchedKind selects the vault scheduling policy.
type SchedKind int

// Scheduler kinds.
const (
	// FRFCFS issues the oldest row-hit request first, falling back to the
	// oldest request (first-ready, first-come-first-served) [48].
	FRFCFS SchedKind = iota
	// FCFS issues strictly in arrival order (the ablation baseline).
	FCFS
)

func (k SchedKind) String() string {
	if k == FCFS {
		return "FCFS"
	}
	return "FR-FCFS"
}

// Config describes one HMC device.
type Config struct {
	Vaults        int
	BanksPerVault int
	QueueDepth    int // FR-FCFS scheduler window per vault
	Timing        dram.Timing
	// AtomicALU is the logic-layer ALU latency added between the read and
	// write halves of an atomic operation.
	AtomicALU sim.Time
	Scheduler SchedKind
	// RefreshInterval (tREFI) and RefreshLatency (tRFC) enable per-vault
	// refresh: every interval, the vault precharges all banks and blocks
	// for the refresh latency. Zero disables refresh (the paper's
	// simulation, like most GPGPU-sim studies of the era, does not model
	// it; enable for the fidelity ablation).
	RefreshInterval sim.Time
	RefreshLatency  sim.Time
}

// DefaultConfig returns the Table I HMC organization.
func DefaultConfig() Config {
	return Config{
		Vaults:        16,
		BanksPerVault: 16,
		QueueDepth:    16,
		Timing:        dram.Table1(),
		AtomicALU:     2 * sim.Nanosecond,
		Scheduler:     FRFCFS,
	}
}

// Request is one memory access presented to the HMC.
type Request struct {
	Loc    mem.Loc // decoded physical location (vault/bank/row of this HMC)
	Write  bool
	Atomic bool
	// Done is invoked exactly once when the access completes.
	Done func(*Request)

	arrive sim.Time
	seq    uint64
}

// Stats aggregates per-HMC measurements.
type Stats struct {
	Reads     stats.Counter
	Writes    stats.Counter
	Atomics   stats.Counter
	RowHits   stats.Counter
	RowMisses stats.Counter
	Refreshes stats.Counter
	// Rejected counts submissions refused by failed vaults (the caller
	// retries through an alternate interleave); rejected requests are not
	// counted as submitted.
	Rejected  stats.Counter
	QueueWait stats.Mean // ps spent queued before issue
	Service   stats.Mean // ps from arrival to completion
}

// HMC is one cube instance.
type HMC struct {
	eng    *sim.Engine
	cfg    Config
	vaults []*vault
	seq    uint64

	// completed counts requests whose Done fired; the audit balances it
	// against submissions and requests still queued or in service.
	completed int64

	Stats Stats
}

// New builds an HMC on engine eng.
func New(eng *sim.Engine, cfg Config) (*HMC, error) {
	if cfg.Vaults <= 0 || cfg.BanksPerVault <= 0 || cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("hmc: invalid config %+v", cfg)
	}
	h := &HMC{eng: eng, cfg: cfg}
	for v := 0; v < cfg.Vaults; v++ {
		h.vaults = append(h.vaults, newVault(h))
	}
	return h, nil
}

// Config returns the device configuration.
func (h *HMC) Config() Config { return h.cfg }

// Submit enqueues a request for service and reports whether the target
// vault accepted it. The request's Loc.Vault selects the vault; its Done
// callback fires at completion time. A failed vault rejects the request
// (returning false, with no side effects beyond the rejection counter) so
// the caller can retry through an alternate interleave.
func (h *HMC) Submit(req *Request) bool {
	if req.Loc.Vault < 0 || req.Loc.Vault >= h.cfg.Vaults {
		panic(fmt.Sprintf("hmc: vault %d out of range", req.Loc.Vault))
	}
	if req.Loc.Bank < 0 || req.Loc.Bank >= h.cfg.BanksPerVault {
		panic(fmt.Sprintf("hmc: bank %d out of range", req.Loc.Bank))
	}
	if h.vaults[req.Loc.Vault].failed {
		h.Stats.Rejected.Inc()
		return false
	}
	h.seq++
	req.seq = h.seq
	req.arrive = h.eng.Now()
	if req.Atomic {
		h.Stats.Atomics.Inc()
	} else if req.Write {
		h.Stats.Writes.Inc()
	} else {
		h.Stats.Reads.Inc()
	}
	h.vaults[req.Loc.Vault].push(req)
	return true
}

// FailVault marks vault v failed (fail-stop): requests already queued or
// in service drain normally, but new submissions are rejected. Idempotent;
// out-of-range indices are ignored.
func (h *HMC) FailVault(v int) {
	if v < 0 || v >= h.cfg.Vaults || h.vaults[v].failed {
		return
	}
	h.vaults[v].failed = true
	vt := h.vaults[v]
	if vt.trace.Enabled() {
		vt.trace.Instant("vault failed", h.eng.Now())
	}
}

// VaultFailed reports whether vault v has been failed.
func (h *HMC) VaultFailed(v int) bool {
	return v >= 0 && v < h.cfg.Vaults && h.vaults[v].failed
}

// Completed returns how many requests have finished service — a monotone
// progress signal for system-level watchdogs.
func (h *HMC) Completed() int64 { return h.completed }

// QueuedRequests returns the total requests waiting or in service.
func (h *HMC) QueuedRequests() int {
	n := 0
	for _, v := range h.vaults {
		n += len(v.queue)
	}
	return n
}

// Instrument attaches this cube to a run's collectors under the given
// component name; a nil one leaves that part of the cube inert.
//
//   - Audit: the name's checker of request conservation. Every submitted
//     request is queued, in service, or completed — Done fires exactly
//     once per request. Bank FSM violations recorded by the dram layer
//     are drained and reported with their vault/bank coordinates.
//   - Trace: one track per vault (named "<name>/v<i>"), carrying bank
//     access spans and queue-depth counters.
//   - Metrics: the "<name>.queued" gauge of requests waiting or in
//     service.
func (h *HMC) Instrument(p obs.Probe, name string) {
	if p.Audit != nil {
		p.Audit.Register(name, func(report func(string)) {
			submitted := h.Stats.Reads.Value() + h.Stats.Writes.Value() + h.Stats.Atomics.Value()
			var queued, inService int64
			for vi, v := range h.vaults {
				if v.inService < 0 {
					report(fmt.Sprintf("vault %d in-service count negative: %d", vi, v.inService))
				}
				queued += int64(len(v.queue))
				inService += int64(v.inService)
				for bi, b := range v.banks {
					for _, msg := range b.TakeViolations() {
						report(fmt.Sprintf("vault %d bank %d: %s", vi, bi, msg))
					}
				}
			}
			if submitted != h.completed+queued+inService {
				report(fmt.Sprintf("request conservation: %d submitted != %d completed + %d queued + %d in service",
					submitted, h.completed, queued, inService))
			}
		})
	}
	if p.Trace != nil {
		for i, v := range h.vaults {
			v.trace = p.Trace.NewTrack(fmt.Sprintf("%s/v%d", name, i))
		}
	}
	if p.Metrics != nil {
		p.Metrics.Gauge(name+".queued", func() float64 {
			q := 0
			for _, v := range h.vaults {
				q += len(v.queue) + v.inService
			}
			return float64(q)
		})
	}
}

// vault is one vault controller: a request queue, a shared data bus, and
// its banks.
type vault struct {
	h     *HMC
	banks []*dram.Bank
	queue []*Request
	// colFree is when the vault's shared data bus next accepts a column
	// command; activations to other banks may overlap freely.
	colFree sim.Time
	// cmdFree paces the command bus: one scheduling decision per tCK.
	cmdFree sim.Time
	// nextRefresh is when the next refresh cycle begins (Infinity when
	// refresh is disabled).
	nextRefresh sim.Time
	scheduled   bool
	// failed rejects new submissions while queued work drains (fail-stop).
	failed bool
	// inService counts requests popped from the queue whose completion
	// event has not fired yet.
	inService int
	// trace is this vault's timeline (inert when tracing is off).
	trace obs.Track
}

func newVault(h *HMC) *vault {
	v := &vault{h: h, nextRefresh: sim.Infinity}
	if h.cfg.RefreshInterval > 0 {
		v.nextRefresh = h.cfg.RefreshInterval
	}
	for b := 0; b < h.cfg.BanksPerVault; b++ {
		v.banks = append(v.banks, dram.NewBank())
	}
	return v
}

func (v *vault) push(req *Request) {
	v.queue = append(v.queue, req)
	v.traceQueueDepth()
	v.kick()
}

// traceQueueDepth samples the vault's outstanding-request count onto its
// trace track.
func (v *vault) traceQueueDepth() {
	if v.trace.Enabled() {
		v.trace.Counter("queue", v.h.eng.Now(), float64(len(v.queue)+v.inService))
	}
}

func (v *vault) kick() {
	if v.scheduled || len(v.queue) == 0 {
		return
	}
	v.scheduled = true
	at := v.h.eng.Now()
	if v.cmdFree > at {
		at = v.cmdFree
	}
	v.h.eng.AtEvent(at, vaultIssue, v)
}

// vaultIssue dispatches a vault wakeup on the closure-free event path; the
// method value v.issue would allocate on every kick.
func vaultIssue(a any) { a.(*vault).issue() }

// issue picks one request by the scheduling policy and starts it on its
// bank. The vault data bus serializes column commands at tCCD spacing.
func (v *vault) issue() {
	v.scheduled = false
	if len(v.queue) == 0 {
		return
	}
	if now := v.h.eng.Now(); now >= v.nextRefresh {
		// Refresh cycle: precharge every bank and stall the vault.
		for _, b := range v.banks {
			b.Precharge()
		}
		v.h.Stats.Refreshes.Inc()
		end := now + v.h.cfg.RefreshLatency
		v.trace.Span("REF", now, end)
		v.colFree = maxT(v.colFree, end)
		v.cmdFree = maxT(v.cmdFree, end)
		v.nextRefresh += v.h.cfg.RefreshInterval
		v.kick()
		return
	}
	idx := v.pick()
	req := v.queue[idx]
	v.queue = append(v.queue[:idx], v.queue[idx+1:]...)
	v.inService++

	now := v.h.eng.Now()
	t := &v.h.cfg.Timing
	bank := v.banks[req.Loc.Bank]
	rowHit := bank.RowHit(req.Loc.Row)
	if rowHit {
		v.h.Stats.RowHits.Inc()
	} else {
		v.h.Stats.RowMisses.Inc()
	}
	var issueAt, done sim.Time
	if req.Atomic {
		// Read-modify-write on the logic die: read, ALU, write back.
		i1, d1 := bank.Access(now, req.Loc.Row, false, t, v.colFree)
		v.colFree = i1 + sim.Time(t.CCD)*t.TCK
		issueAt = i1
		var i2 sim.Time
		i2, done = bank.Access(d1+v.h.cfg.AtomicALU, req.Loc.Row, true, t, v.colFree)
		v.colFree = i2 + sim.Time(t.CCD)*t.TCK
	} else {
		issueAt, done = bank.Access(now, req.Loc.Row, req.Write, t, v.colFree)
		v.colFree = issueAt + sim.Time(t.CCD)*t.TCK
	}
	v.cmdFree = now + t.TCK
	v.h.Stats.QueueWait.Add(float64(issueAt - req.arrive))
	if v.trace.Enabled() {
		// Bank state span: the command sequence (ACT on a row miss, then
		// RD/WR, or the atomic read-ALU-write) from issue to data return.
		op := "RD"
		switch {
		case req.Atomic:
			op = "ATOM"
		case req.Write:
			op = "WR"
		}
		if !rowHit {
			op = "ACT+" + op
		}
		v.trace.Span(fmt.Sprintf("%s b%d", op, req.Loc.Bank), now, done)
	}
	v.h.eng.At(done, func() {
		v.inService--
		v.h.completed++
		v.h.Stats.Service.Add(float64(done - req.arrive))
		v.traceQueueDepth()
		if req.Done != nil {
			req.Done(req)
		}
	})
	v.kick()
}

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// pick returns the index of the request to issue next within the
// scheduling window.
func (v *vault) pick() int {
	window := len(v.queue)
	if window > v.h.cfg.QueueDepth {
		window = v.h.cfg.QueueDepth
	}
	if v.h.cfg.Scheduler == FRFCFS {
		for i := 0; i < window; i++ {
			r := v.queue[i]
			if v.banks[r.Loc.Bank].RowHit(r.Loc.Row) {
				return i
			}
		}
	}
	return 0
}

// ProfSnapshot renders this cube's counters as a profile section (the
// flush-time snapshot used by internal/prof; no hot-path hooks needed —
// the existing statistics already carry the attribution).
func (h *HMC) ProfSnapshot(id int) prof.HMCSection {
	return prof.HMCSection{
		HMC:            id,
		Reads:          h.Stats.Reads.Value(),
		Writes:         h.Stats.Writes.Value(),
		Atomics:        h.Stats.Atomics.Value(),
		RowHits:        h.Stats.RowHits.Value(),
		RowMisses:      h.Stats.RowMisses.Value(),
		Refreshes:      h.Stats.Refreshes.Value(),
		Rejected:       h.Stats.Rejected.Value(),
		Requests:       h.Stats.Service.Count(),
		AvgQueueWaitPS: h.Stats.QueueWait.Value(),
		AvgServicePS:   h.Stats.Service.Value(),
	}
}
