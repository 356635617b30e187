// Benchmarks that regenerate every table and figure of the paper's
// evaluation section. Each benchmark runs the corresponding experiment at
// a reduced input scale and reports the figure's headline metrics via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's results table by table. cmd/experiments prints
// the full tables at larger scales.
//
// Each figure's run matrix fans out over the internal/par worker pool
// (width MEMNET_PAR, default: CPU count), so a -bench=. sweep uses every
// core; reported simulation metrics are identical at any parallelism.
// The harness itself, the same figure sequential vs fanned out, is timed
// by go test ./internal/bench -bench Sweep.
package memnet_test

import (
	"testing"

	"memnet"
	"memnet/internal/core"
	"memnet/internal/exp"
)

// benchScale keeps every figure's bench affordable in one -bench=. sweep.
const benchScale = 0.1

// BenchmarkFig07 — remote-memory-access cost: vectorAdd on one GPU with
// data across 1/2/4 GPU memories, PCIe baseline vs GPU memory network.
// Paper: up to 11.7x slowdown on PCIe; a small speedup at 50% remote on
// the memory network.
func BenchmarkFig07(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Env{}.Fig7(benchScale * 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PCIe[2].Normalized, "PCIe-4gpu-slowdown-x")
		b.ReportMetric(r.GMN[1].Normalized, "GMN-2gpu-relative-x")
		b.ReportMetric(r.GMN[2].Normalized, "GMN-4gpu-relative-x")
	}
}

// BenchmarkFig10 — traffic distribution: KMN near-uniform vs CG.S
// imbalanced (paper: up to 11.7x per-HMC variance for CG.S).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := exp.Env{}.Fig10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			name := r.Workload + "-imbalance-x"
			b.ReportMetric(r.Imbalance, name)
		}
	}
}

// BenchmarkFig12 — channel counts: sFBFLY cuts 50% (4 GPUs) and 43%
// (8 GPUs) of dFBFLY's bidirectional channels.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.GPUs == 4 {
				b.ReportMetric(100*r.Reduction, "reduction-4gpu-%")
			}
			if r.GPUs == 8 {
				b.ReportMetric(100*r.Reduction, "reduction-8gpu-%")
			}
		}
	}
}

// BenchmarkFig14 — the architecture comparison over all Table II
// workloads. Paper: GMN kernel speedup up to 8.8x (BP) and 3.5x average
// over PCIe; CMN 1.8x / CMN-ZC 2.2x total; UMN 8.5x total.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig14(benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		gm, mx := r.KernelSpeedup("PCIe", "GMN")
		b.ReportMetric(gm, "GMN-kernel-geomean-x")
		b.ReportMetric(mx, "GMN-kernel-max-x")
		b.ReportMetric(r.Speedup("PCIe", "UMN"), "UMN-total-x")
		b.ReportMetric(r.Speedup("PCIe", "CMN"), "CMN-total-x")
		b.ReportMetric(r.Speedup("PCIe", "CMN-ZC"), "CMN-ZC-total-x")
	}
}

// BenchmarkFig15 — minimal vs UGAL routing on dDFLY/dFBFLY. Paper: ~1-2%
// for uniform workloads, 9.5% for CG.S on dFBFLY.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Env{}.Fig15(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Topo == "dFBFLY" && r.Workload == "CG.S" {
				b.ReportMetric(100*r.Gain, "CG.S-dFBFLY-gain-%")
			}
			if r.Topo == "dFBFLY" && r.Workload == "KMN" {
				b.ReportMetric(100*r.Gain, "KMN-dFBFLY-gain-%")
			}
		}
	}
}

// fig16Workloads is the subset benchmarked for the topology comparison.
var fig16Workloads = []string{"BP", "KMN", "BFS", "FWT"}

// BenchmarkFig16 — sliced topology performance: sFBFLY better or equal to
// sMESH-2x/sTORUS-2x with fewer channels.
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Env{}.Fig16(benchScale, fig16Workloads)
		if err != nil {
			b.Fatal(err)
		}
		kernel := func(r exp.TopoRow) float64 { return float64(r.Kernel) }
		b.ReportMetric(exp.GeomeanBy(rows, "sMESH", "sFBFLY", kernel), "vs-sMESH-x")
		b.ReportMetric(exp.GeomeanBy(rows, "sMESH-2x", "sFBFLY", kernel), "vs-sMESH-2x-x")
		b.ReportMetric(exp.GeomeanBy(rows, "sTORUS-2x", "sFBFLY", kernel), "vs-sTORUS-2x-x")
	}
}

// BenchmarkFig17 — network energy: sFBFLY saves up to 50.7% (BP) and
// 20.3% average vs sMESH in the paper.
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Env{}.Fig16(benchScale, fig16Workloads)
		if err != nil {
			b.Fatal(err)
		}
		energy := func(r exp.TopoRow) float64 { return r.EnergyJ }
		ratio := exp.GeomeanBy(rows, "sMESH", "sFBFLY", energy) // sMESH / sFBFLY
		b.ReportMetric(100*(1-1/ratio), "saving-vs-sMESH-%")
	}
}

// BenchmarkFig18 — host-thread performance on UMN designs (1CPU-3GPU):
// overlay < sFBFLY < sMESH host time for CG.S and FT.S.
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Env{}.Fig18(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		get := func(wl, d string) float64 {
			for _, r := range rows {
				if r.Workload == wl && r.Design == d {
					return float64(r.HostTime)
				}
			}
			return 0
		}
		b.ReportMetric(get("CG.S", "sMESH")/get("CG.S", "overlay"), "CG.S-overlay-vs-sMESH-x")
		b.ReportMetric(get("CG.S", "sFBFLY")/get("CG.S", "overlay"), "CG.S-overlay-vs-sFBFLY-x")
		b.ReportMetric(get("FT.S", "sFBFLY")/get("FT.S", "overlay"), "FT.S-overlay-vs-sFBFLY-x")
	}
}

// BenchmarkFig19 — kernel speedup scaling to 8 GPUs (16-GPU runs belong in
// cmd/experiments; they are too slow for a bench sweep). Paper: geomean
// 13.5x at 16 GPUs, CP near-ideal, FWT lowest.
func BenchmarkFig19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, gm, err := exp.Env{}.Fig19(benchScale*8, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gm, "geomean-8gpu-x")
		lo, hi := 1e18, 0.0
		for _, r := range rows {
			s := r.Speedup[len(r.Speedup)-1]
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		b.ReportMetric(lo, "min-8gpu-x")
		b.ReportMetric(hi, "max-8gpu-x")
	}
}

// BenchmarkCTASched — the Section III-B scheduler study: static chunked
// assignment vs round-robin (paper: +8% performance, up to +43% L1 and
// +20% L2 hit rate) and CTA stealing (paper: <1%).
func BenchmarkCTASched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Env{}.CTASched(benchScale, []string{"SRAD", "BP"})
		if err != nil {
			b.Fatal(err)
		}
		var stL2, rrL2, stT, rrT, stealT float64
		n := 0.0
		for _, r := range rows {
			switch r.Policy {
			case "static-chunk":
				stL2 += r.L2Hit
				stT += float64(r.Kernel)
				n++
			case "round-robin":
				rrL2 += r.L2Hit
				rrT += float64(r.Kernel)
			case "static+steal":
				stealT += float64(r.Kernel)
			}
		}
		b.ReportMetric(rrT/stT, "static-vs-rr-x")
		b.ReportMetric(100*(stL2-rrL2)/n, "L2-hit-delta-pp")
		b.ReportMetric(stT/stealT, "steal-vs-static-x")
	}
}

// BenchmarkTableIII — one quick run per Table III architecture, reporting
// total runtime (sanity of the whole wiring).
func BenchmarkTableIII(b *testing.B) {
	for _, arch := range core.Architectures() {
		arch := arch
		b.Run(arch.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := memnet.DefaultConfig(arch, "BFS")
				cfg.Scale = benchScale
				res, err := memnet.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Total)/1e6, "sim-us")
			}
		})
	}
}
