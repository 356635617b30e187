// Package core assembles the complete multi-GPU systems of the paper: the
// PCIe baseline and the CMN / GMN / UMN memory-network organizations
// (Table III), each driving the SKE runtime, the GPU and CPU timing
// models, the HMC memory devices and the interconnection network, and runs
// workloads end to end (memcpy, kernel iterations, host compute phases).
package core

import (
	"fmt"
	"sync/atomic"

	"memnet/internal/cpu"
	"memnet/internal/fault"
	"memnet/internal/gpu"
	"memnet/internal/hmc"
	"memnet/internal/mem"
	"memnet/internal/noc"
	"memnet/internal/obs"
	"memnet/internal/pcie"
	"memnet/internal/sim"
	"memnet/internal/ske"
	"memnet/internal/workload"
)

// Arch enumerates the evaluated multi-GPU architectures (Table III).
type Arch int

// Architectures.
const (
	// PCIe: conventional PCIe-based multi-GPU with explicit memcpy.
	PCIe Arch = iota
	// PCIeZC: PCIe-based with zero-copy (data stays in CPU memory).
	PCIeZC
	// CMN: CPU memory network with memcpy; GPU-host and GPU-GPU
	// communication cross the CPU's memory network instead of PCIe, but
	// each GPU's local memory stays private (Fig. 8a).
	CMN
	// CMNZC: CMN with zero-copy host memory.
	CMNZC
	// GMN: GPU memory network with memcpy; all GPU local memories are
	// interconnected (Fig. 8b), the host stays on PCIe.
	GMN
	// GMNZC: GMN with zero-copy host memory over PCIe.
	GMNZC
	// UMN: unified memory network; CPU and GPU memory share one network
	// and no copies are needed (Fig. 8c).
	UMN
)

var archNames = map[Arch]string{
	PCIe: "PCIe", PCIeZC: "PCIe-ZC", CMN: "CMN", CMNZC: "CMN-ZC",
	GMN: "GMN", GMNZC: "GMN-ZC", UMN: "UMN",
}

func (a Arch) String() string {
	if s, ok := archNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// Architectures returns all architectures in Table III order.
func Architectures() []Arch {
	return []Arch{PCIe, PCIeZC, CMN, CMNZC, GMN, GMNZC, UMN}
}

// ParseArch converts an architecture name.
func ParseArch(s string) (Arch, error) {
	for a, name := range archNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown architecture %q", s)
}

// zeroCopy reports whether host-initialized data stays in CPU memory.
func (a Arch) zeroCopy() bool { return a == PCIeZC || a == CMNZC || a == GMNZC }

// needsCopy reports whether explicit H2D/D2H transfers happen.
func (a Arch) needsCopy() bool { return a == PCIe || a == CMN || a == GMN }

// hasPCIe reports whether a PCIe fabric exists in the system.
func (a Arch) hasPCIe() bool {
	return a == PCIe || a == PCIeZC || a == GMN || a == GMNZC
}

// AuditMode selects whether a system attaches the self-audit layer: the
// conservation invariants checked at every phase boundary (see package
// audit). The audit is purely passive — it schedules no events and touches
// no simulation state — so results are byte-identical with it on or off.
type AuditMode int

// Audit modes.
const (
	// AuditDefault follows the process-wide default: on under `go test`
	// (tests leave it untouched), off in the CLIs unless -audit is given.
	AuditDefault AuditMode = iota
	AuditOn
	AuditOff
)

// auditDefault is the process-wide audit default for AuditDefault configs.
// It starts true so every test-built system self-checks; the CLIs override
// it from their -audit flag. Atomic because experiment sweeps build systems
// from many goroutines.
var auditDefault atomic.Bool

func init() { auditDefault.Store(true) }

// SetAuditDefault sets the process-wide default used by AuditDefault
// configs.
func SetAuditDefault(on bool) { auditDefault.Store(on) }

func (c *Config) auditEnabled() bool {
	switch c.Audit {
	case AuditOn:
		return true
	case AuditOff:
		return false
	}
	return auditDefault.Load()
}

// Config describes one simulated system and run.
type Config struct {
	Arch     Arch
	Workload string
	Scale    float64

	// Audit attaches the invariant self-audit layer (AuditDefault follows
	// the process-wide default set by SetAuditDefault).
	Audit AuditMode

	// TraceOut, when non-empty, records a simulated-time timeline of the
	// run — SKE kernel/chunk spans, GPU occupancy, HMC bank activity,
	// PCIe transfers, host phases, and the sampled metrics as counter
	// tracks — and writes it to this file as Chrome trace_event JSON
	// (openable in ui.perfetto.dev). Like auditing, tracing is passive:
	// it schedules no events and results are byte-identical either way.
	TraceOut string
	// ProfileOut, when non-empty, attaches the latency-attribution
	// profiler (package prof): per-packet latency decomposed into named
	// stages, per-router/VC congestion heat, and per-kernel compute
	// breakdowns. Like tracing it is passive — the profiler schedules no
	// events and results are byte-identical with it on or off. The profile
	// is written to this file as JSON (schema "memnet-prof/v1", readable
	// by cmd/memnetprof) and exposed through System.Profile after the run.
	ProfileOut string
	// MetricsOut, when non-empty, writes windowed metrics to this file:
	// one row per MetricsEpoch of simulated time, CSV by default or JSON
	// Lines when the name ends in ".jsonl".
	MetricsOut string
	// MetricsEpoch is the metrics sampling window (default 1 µs).
	MetricsEpoch sim.Time
	// DumpStateOnDeadlock appends a full network state dump to the error
	// when a phase deadlocks or livelocks (see noc.DumpState).
	DumpStateOnDeadlock bool
	// Progress, when non-nil, receives coarse progress events (run and
	// phase boundaries; see obs.ProgressEvent). Like tracing it is
	// passive — events fire between engine events, so results are
	// byte-identical with a sink attached or not.
	Progress obs.ProgressFunc

	// Stop, when non-nil, is a cooperative cancellation latch: the phase
	// loop polls it between engine events and aborts the run with
	// ErrStopped once it trips (a cancel API, a deadline timer). Strictly
	// passive while untripped — the poll is one atomic load, schedules no
	// events, and results are byte-identical with a latch attached or not.
	Stop *sim.Stop

	// Faults is an explicit fault-injection schedule; when it is empty,
	// FaultRates applies. An empty schedule injects nothing and leaves the
	// run byte-identical to a fault-free one.
	Faults *fault.Schedule
	// FaultRates, when active, generates a seeded schedule against the
	// built system's shape (used when Faults is empty).
	FaultRates fault.Rates
	// Watchdog is the phase forward-progress window: a phase whose
	// activity counters stop advancing for this long while events keep
	// firing is aborted as livelocked. Zero uses the default (5 ms);
	// negative disables the check.
	Watchdog sim.Time

	// Custom, when non-nil, overrides Workload/Scale with a caller-built
	// workload — e.g. a replayed kernel trace (workload.FromTrace).
	Custom *workload.Workload

	NumGPUs    int // discrete GPUs (and GPU HMC clusters)
	HMCsPerGPU int

	// ExecGPUs restricts kernel execution to the first N GPUs (0 = all);
	// Fig. 7 runs a kernel on one GPU with data spread over several.
	ExecGPUs int
	// DataClusters overrides which GPU clusters hold device data in
	// memcpy mode (nil = all executing-system GPU clusters).
	DataClusters []int

	// Topo is the inter-cluster topology for GMN/UMN (default sFBFLY).
	Topo           noc.TopoKind
	TopoMultiplier int  // channel duplication (the "-2x" variants)
	Overlay        bool // UMN CPU overlay (Section V-C)
	UGAL           bool // UGAL injection routing (Fig. 15)
	Adaptive       bool // adaptive minimal-port selection (Fig. 15)

	Sched ske.Policy

	// OwnerCompute places each buffer's pages proportionally along the
	// CTA index space instead of randomly, so the GPU that executes a
	// region's CTAs (under static chunking) also owns its pages — the
	// locality-optimized mapping Section III-C leaves as an open
	// question. An extension beyond the paper.
	OwnerCompute bool

	GPU  gpu.Config
	CPU  cpu.Config
	HMC  hmc.Config
	Net  noc.Config
	PCIe pcie.Config
	SKE  ske.Config

	Seed int64
}

// DefaultConfig returns the paper's 4GPU-16HMC configuration (Table I)
// for the given architecture and workload.
func DefaultConfig(arch Arch, workloadName string) Config {
	return Config{
		Arch:       arch,
		Workload:   workloadName,
		Scale:      1.0,
		NumGPUs:    4,
		HMCsPerGPU: 4,
		Topo:       noc.TopoSFBFLY,
		Sched:      ske.StaticChunk,
		GPU:        gpu.DefaultConfig(),
		CPU:        cpu.DefaultConfig(),
		HMC:        hmc.DefaultConfig(),
		Net:        noc.DefaultConfig(),
		PCIe:       pcie.DefaultConfig(),
		SKE:        ske.DefaultConfig(),
		Seed:       1,
	}
}

func (c *Config) validate() error {
	if c.NumGPUs <= 0 || c.HMCsPerGPU <= 0 {
		return fmt.Errorf("core: need GPUs and HMCs, got %d/%d", c.NumGPUs, c.HMCsPerGPU)
	}
	if c.ExecGPUs < 0 || c.ExecGPUs > c.NumGPUs {
		return fmt.Errorf("core: ExecGPUs %d out of range", c.ExecGPUs)
	}
	if c.Overlay && c.Arch != UMN {
		return fmt.Errorf("core: overlay requires UMN")
	}
	if c.Scale <= 0 {
		return fmt.Errorf("core: scale must be positive")
	}
	return nil
}

// cpuCluster returns the CPU's cluster index (after the GPU clusters).
func (c *Config) cpuCluster() int { return c.NumGPUs }

// clusters returns the total cluster count (GPUs + CPU).
func (c *Config) clusters() int { return c.NumGPUs + 1 }

// memConfig derives the address-mapping configuration; the cluster field
// is padded to a power of two as required by the bit-field layout.
func (c *Config) memConfig() mem.Config {
	mc := mem.DefaultConfig()
	mc.LocalPerCluster = c.HMCsPerGPU
	mc.Clusters = 1
	for mc.Clusters < c.clusters() {
		mc.Clusters <<= 1
	}
	return mc
}
