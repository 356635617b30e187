// Ablation benchmarks for the design choices DESIGN.md calls out: the
// vault scheduling policy, the GPU last-level-cache write policy, the
// pass-through hop depth of the overlay, and the sFBFLY-vs-dFBFLY channel
// removal itself.
package memnet_test

import (
	"testing"

	"memnet"
	"memnet/internal/cache"
	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/hmc"
)

// BenchmarkAblationVaultScheduler — FR-FCFS (Table I) vs plain FCFS vault
// scheduling: row-hit-first scheduling should not lose and usually wins on
// row-locality-heavy workloads.
func BenchmarkAblationVaultScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(s hmc.SchedKind) (kernel, memlat float64) {
			cfg := memnet.DefaultConfig(memnet.UMN, "BP")
			cfg.Scale = benchScale
			cfg.HMC.Scheduler = s
			res, err := memnet.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Kernel), float64(res.GPUMemLatency)
		}
		fr, frLat := run(hmc.FRFCFS)
		fc, fcLat := run(hmc.FCFS)
		// In this system the network, not the DRAM, is the bottleneck, so
		// the policies land close; FR-FCFS should never lose.
		b.ReportMetric(fc/fr, "FCFS-vs-FRFCFS-x")
		b.ReportMetric(fcLat/frLat, "memlat-ratio-x")
	}
}

// BenchmarkAblationL2Policy — write-through/no-allocate (the Section III-D
// requirement) vs write-back/allocate L2. Write-back may be faster for a
// single GPU but is *incorrect* across GPUs under SKE; this quantifies
// what the correctness constraint costs.
func BenchmarkAblationL2Policy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(p cache.WritePolicy) float64 {
			cfg := memnet.DefaultConfig(memnet.UMN, "SRAD")
			cfg.Scale = benchScale
			cfg.GPU.L2.Policy = p
			res, err := memnet.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Kernel)
		}
		wt := run(cache.WriteThroughNoAllocate)
		wb := run(cache.WriteBackAllocate)
		b.ReportMetric(wt/wb, "WT-cost-vs-WB-x")
	}
}

// BenchmarkAblationPassThroughDepth — the overlay's benefit as a function
// of the pass-through hop latency: at 1 cycle (the design point) the
// overlay wins; if pass-through cost approached the full router pipeline,
// the benefit would vanish.
func BenchmarkAblationPassThroughDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(cycles int) float64 {
			cfg := memnet.DefaultConfig(memnet.UMN, "CG.S")
			cfg.Scale = benchScale
			cfg.NumGPUs = 3
			cfg.Overlay = true
			cfg.Net.PassThrough = cycles
			res, err := memnet.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Host)
		}
		fast := run(1)
		slow := run(8) // pass-through as slow as SerDes + pipeline
		b.ReportMetric(slow/fast, "deep-passthrough-cost-x")
	}
}

// BenchmarkAblationSFBFLYChannels — the core sFBFLY claim: removing the
// intra-cluster channels (half the network at 4 GPUs) costs almost no
// performance because cache-line interleaving balances intra-cluster
// traffic.
func BenchmarkAblationSFBFLYChannels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(topo string) (kernel float64, channels int) {
			cfg := memnet.DefaultConfig(memnet.GMN, "KMN")
			cfg.Scale = benchScale
			k, err := memnet.ParseTopo(topo)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Topo = k
			res, err := memnet.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Kernel), res.RouterChannels
		}
		s, sc := run("sFBFLY")
		d, dc := run("dFBFLY")
		b.ReportMetric(s/d, "sFBFLY-vs-dFBFLY-time-x")
		b.ReportMetric(float64(dc)/float64(sc), "channel-ratio-x")
	}
}

// BenchmarkExtensionPlacement — the owner-compute page placement extension
// (Section III-C's open question): aligning page placement with SKE's
// static CTA chunks versus the paper's random placement.
func BenchmarkExtensionPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Env{}.Placement(benchScale, []string{"BP", "SRAD"})
		if err != nil {
			b.Fatal(err)
		}
		var rt, ot float64
		for _, r := range rows {
			if r.Policy == "random" {
				rt += float64(r.Kernel)
			} else {
				ot += float64(r.Kernel)
			}
		}
		b.ReportMetric(rt/ot, "owner-compute-speedup-x")
	}
}

// BenchmarkAblationPageTableSync — SKE's page-table synchronization cost
// per launch (Section III-C): how sensitive total runtime is to it.
func BenchmarkAblationPageTableSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(mult int) float64 {
			cfg := core.DefaultConfig(core.UMN, "BFS")
			cfg.Scale = benchScale
			cfg.SKE.PageTableSync *= memnet.Time(mult)
			res, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Total)
		}
		base := run(1)
		heavy := run(10)
		b.ReportMetric(heavy/base, "10x-ptsync-cost-x")
	}
}

// BenchmarkAblationRefresh — DRAM refresh fidelity: the paper's simulation
// (like most of its era) does not model refresh; enabling a DDR-like
// tREFI/tRFC quantifies what that omission is worth.
func BenchmarkAblationRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(on bool) float64 {
			cfg := memnet.DefaultConfig(memnet.UMN, "BP")
			cfg.Scale = benchScale
			if on {
				cfg.HMC.RefreshInterval = 3900 * 1000 // 3.9 us in ps
				cfg.HMC.RefreshLatency = 260 * 1000   // 260 ns
			}
			res, err := memnet.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Kernel)
		}
		off := run(false)
		on := run(true)
		b.ReportMetric(on/off, "refresh-cost-x")
	}
}
