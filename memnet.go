// Package memnet is a simulation library for multi-GPU systems built on
// Hybrid Memory Cube (HMC) memory networks, reproducing "Multi-GPU System
// Design with Memory Networks" (Kim, Lee, Jeong and Kim, MICRO 2014).
//
// The library models, end to end:
//
//   - Scalable Kernel Execution (SKE): N discrete GPUs presented as one
//     virtual GPU, with static chunked / round-robin / work-stealing CTA
//     assignment (Section III of the paper);
//   - memory-network organizations: the conventional PCIe baseline, the
//     CPU memory network (CMN), the GPU memory network (GMN) and the
//     unified memory network (UMN), each with memcpy and zero-copy data
//     placement (Table III);
//   - network topologies: the proposed sliced flattened butterfly
//     (sFBFLY), distributor-based flattened butterfly and dragonfly,
//     sliced mesh/torus (and their doubled-channel variants), and the
//     CPU pass-through overlay (Section V);
//   - the full substrate: cycle-level virtual-channel routers, HMC vault
//     controllers with FR-FCFS DRAM scheduling, GPU SM/cache models, an
//     out-of-order host CPU and a PCIe fabric.
//
// Quick start:
//
//	cfg := memnet.DefaultConfig(memnet.UMN, "VA")
//	res, err := memnet.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Kernel, res.Total)
//
// The Fig* functions regenerate every figure and table of the paper's
// evaluation; cmd/experiments is a CLI over them.
package memnet

import (
	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/noc"
	"memnet/internal/sim"
	"memnet/internal/ske"
	"memnet/internal/workload"
)

// Config describes one simulated system and run; see DefaultConfig.
type Config = core.Config

// Result is a completed run's measurements.
type Result = core.Result

// Arch selects the multi-GPU architecture (Table III).
type Arch = core.Arch

// Architectures of Table III.
const (
	PCIe   = core.PCIe
	PCIeZC = core.PCIeZC
	CMN    = core.CMN
	CMNZC  = core.CMNZC
	GMN    = core.GMN
	GMNZC  = core.GMNZC
	UMN    = core.UMN
)

// Topology kinds for Config.Topo (Section V).
const (
	TopoSFBFLY = noc.TopoSFBFLY
	TopoDFBFLY = noc.TopoDFBFLY
	TopoDDFLY  = noc.TopoDDFLY
	TopoSMESH  = noc.TopoSMESH
	TopoSTORUS = noc.TopoSTORUS
	TopoRing   = noc.TopoRing
	TopoStar   = noc.TopoStar
)

// CTA assignment policies for Config.Sched (Section III-B).
const (
	StaticChunk = ske.StaticChunk
	RoundRobin  = ske.RoundRobin
	StaticSteal = ske.StaticSteal
)

// Time is a simulation timestamp/duration in picoseconds.
type Time = sim.Time

// Time units, for configuration fields like Config.MetricsEpoch.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// DefaultConfig returns the paper's 4GPU-16HMC Table I configuration for
// an architecture and workload (see Workloads for names).
func DefaultConfig(arch Arch, workloadName string) Config {
	return core.DefaultConfig(arch, workloadName)
}

// Run builds the system described by cfg and executes its workload end to
// end: H2D copy (when the architecture copies), kernel iterations with
// host compute phases, and the D2H copy.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// Architectures returns all architectures in Table III order.
func Architectures() []Arch { return core.Architectures() }

// ParseArch converts an architecture name ("PCIe", "UMN", ...).
func ParseArch(s string) (Arch, error) { return core.ParseArch(s) }

// ParseTopo converts a topology name ("sFBFLY", "sMESH", ...).
func ParseTopo(s string) (noc.TopoKind, error) { return noc.ParseTopo(s) }

// Workloads returns the Table II workload names plus "VA" (vectorAdd).
func Workloads() []string { return workload.Names() }

// Experiment re-exports: each regenerates one figure/table of the paper.
var (
	// Fig7 runs the remote-memory-access microbenchmark (Fig. 7).
	Fig7 = exp.Env{}.Fig7
	// Fig10 measures GPU-to-HMC traffic distributions (Fig. 10).
	Fig10 = exp.Env{}.Fig10
	// Fig12 counts dFBFLY vs sFBFLY channels (Fig. 12).
	Fig12 = exp.Fig12
	// Fig14 runs the full architecture comparison (Fig. 14).
	Fig14 = exp.Fig14
	// Fig15 compares minimal vs UGAL routing (Fig. 15).
	Fig15 = exp.Env{}.Fig15
	// Fig16 compares sliced topologies' performance and energy
	// (Fig. 16 and Fig. 17 share these runs); nil workloads run
	// BP, KMN, BFS, SRAD, FWT and CP, as cmd/experiments does.
	Fig16 = exp.Env{}.Fig16
	// Fig18 compares UMN designs for host-thread latency (Fig. 18).
	Fig18 = exp.Env{}.Fig18
	// Fig19 measures multi-GPU scalability (Fig. 19).
	Fig19 = exp.Env{}.Fig19
	// CTASched compares CTA assignment policies (Section III-B).
	CTASched = exp.Env{}.CTASched
)
