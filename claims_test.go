package memnet_test

import (
	"fmt"
	"math"
	"testing"

	"memnet/internal/cache"
	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/hmc"
	"memnet/internal/noc"
	"memnet/internal/sim"
)

// claimScale is the workload scale of every run below that sets no other:
// the whole table runs in seconds, and every figure keeps its shape.
const claimScale = 0.05

// bound is the range a row's number must lie in.
type bound struct {
	desc string
	ok   func(float64) bool
}

func above(x float64) bound {
	return bound{fmt.Sprintf("> %g", x), func(v float64) bool { return v > x }}
}
func below(x float64) bound {
	return bound{fmt.Sprintf("< %g", x), func(v float64) bool { return v < x }}
}
func exactly(x float64) bound {
	return bound{fmt.Sprintf("= %g", x), func(v float64) bool { return v == x }}
}
func within(lo, hi float64) bound {
	return bound{fmt.Sprintf("[%g, %g]", lo, hi), func(v float64) bool { return lo <= v && v <= hi }}
}

// Notes that mark a row whose bound brackets our number instead of
// stating the paper's claim: where we deviate from the paper (see
// EXPERIMENTS.md), and where an ablation changes nothing at test scale.
// A fix and a regression both fail such a row.
const (
	deviation = "deviation"
	noEffect  = "no effect"
)

// claim is one row of the table.
type claim struct {
	name  string
	paper string // the paper's value; "—" for an ablation or extension
	ours  float64
	bound bound
	note  string
}

// TestPaperClaims is the paper's evaluation as one asserted table. Each
// row computes one number from a figure run once, names the paper's value
// beside ours and fails when ours leaves its bound. Where we reproduce a
// claim, the bound states the claim: an ordering, a threshold, or a band
// holding both our value and the paper's. The simulator is deterministic,
// so a bound that holds once holds on every run of the same code.
//
//	go test -run TestPaperClaims -v .
//
// prints the table.
func TestPaperClaims(t *testing.T) {
	fatal := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	env := exp.Env{}
	// Fig. 7 needs enough traffic that bandwidth, not launch overhead,
	// sets the kernel time.
	f7, err := env.Fig7(4 * claimScale)
	fatal(err)
	f10, err := env.Fig10(claimScale)
	fatal(err)
	f12, err := exp.Fig12()
	fatal(err)
	f14, err := env.Fig14(claimScale, nil)
	fatal(err)
	f15, err := env.Fig15(claimScale)
	fatal(err)
	f16, err := env.Fig16(claimScale, nil)
	fatal(err)
	f18, err := env.Fig18(claimScale)
	fatal(err)
	// Fig. 19 needs enough CTAs to keep eight 8-SM GPUs busy.
	f19, f19geomean, err := env.Fig19(2*claimScale, []int{1, 2, 4, 8})
	fatal(err)
	sched, err := env.CTASched(claimScale, []string{"SRAD", "BP"})
	fatal(err)
	place, err := env.Placement(claimScale, []string{"BP", "SRAD"})
	fatal(err)

	// Each ablation compares a Table I design point with the same system
	// with one design choice changed.
	run := func(arch core.Arch, wl string, edit func(*core.Config)) *core.Result {
		t.Helper()
		cfg := core.DefaultConfig(arch, wl)
		cfg.Scale = claimScale
		if edit != nil {
			edit(&cfg)
		}
		res, err := core.Run(cfg)
		fatal(err)
		return res
	}
	sfbfly := run(core.GMN, "KMN", nil)
	dfbfly := run(core.GMN, "KMN", func(c *core.Config) { c.Topo = noc.TopoDFBFLY })
	bp := run(core.UMN, "BP", nil)
	fcfs := run(core.UMN, "BP", func(c *core.Config) { c.HMC.Scheduler = hmc.FCFS })
	refresh := run(core.UMN, "BP", func(c *core.Config) {
		c.HMC.RefreshInterval = 3900 * sim.Nanosecond // DDR-like tREFI
		c.HMC.RefreshLatency = 260 * sim.Nanosecond   // and tRFC
	})
	writeThrough := run(core.UMN, "SRAD", nil)
	writeBack := run(core.UMN, "SRAD", func(c *core.Config) { c.GPU.L2.Policy = cache.WriteBackAllocate })
	overlay := func(passThrough int) func(*core.Config) {
		return func(c *core.Config) { c.NumGPUs, c.Overlay, c.Net.PassThrough = 3, true, passThrough }
	}
	shallow := run(core.UMN, "CG.S", overlay(1))
	deep := run(core.UMN, "CG.S", overlay(8)) // as slow as SerDes plus the router pipeline
	bfs := run(core.UMN, "BFS", nil)
	slowSync := run(core.UMN, "BFS", func(c *core.Config) { c.SKE.PageTableSync *= 10 })

	ratio := func(a, b sim.Time) float64 { return float64(a) / float64(b) }
	channels := map[int]exp.Fig12Row{}
	for _, r := range f12 {
		channels[r.GPUs] = r
	}
	gmnGeomean, gmnMax := f14.KernelSpeedup("PCIe", "GMN")
	ugal := map[string]float64{} // gain in %, by topology and workload
	for _, r := range f15 {
		ugal[r.Topo+" "+r.Workload] = 100 * r.Gain
	}
	uniformGain := 0.0 // the largest UGAL gain, either sign, on KMN and CP
	for _, k := range []string{"dDFLY KMN", "dDFLY CP", "dFBFLY KMN", "dFBFLY CP"} {
		uniformGain = math.Max(uniformGain, math.Abs(ugal[k]))
	}
	kernel := func(r exp.TopoRow) float64 { return float64(r.Kernel) }
	energy := func(r exp.TopoRow) float64 { return r.EnergyJ }
	host := map[string]float64{}
	for _, r := range f18 {
		host[r.Workload+" "+r.Design] = float64(r.HostTime)
	}
	// at8 is each workload's speedup at 8 GPUs; minStep the smallest gain
	// from one GPU count to the next over every workload.
	at8, minStep := map[string]float64{}, math.Inf(1)
	lo8, hi8, bp4 := math.Inf(1), 0.0, 0.0
	for _, r := range f19 {
		for i := 1; i < len(r.Speedup); i++ {
			minStep = math.Min(minStep, r.Speedup[i]/r.Speedup[i-1])
		}
		s := r.Speedup[len(r.Speedup)-1]
		at8[r.Workload] = s
		lo8, hi8 = math.Min(lo8, s), math.Max(hi8, s)
		if r.Workload == "BP" {
			bp4 = r.Speedup[2]
		}
	}
	policy := map[string]exp.SchedRow{}
	for _, r := range sched {
		policy[r.Workload+" "+r.Policy] = r
	}
	placed := map[string]exp.PlacementRow{}
	for _, r := range place {
		placed[r.Workload+" "+r.Policy] = r
	}

	claims := []claim{
		{"Fig. 7a: PCIe runtime, data on 2 GPUs vs 1", "≤ 11.7×", f7.PCIe[1].Normalized, within(2.6, 3.3), deviation},
		{"Fig. 7a: PCIe runtime, data on 4 GPUs vs 1", "11.7×", f7.PCIe[2].Normalized, within(3.9, 4.7), deviation},
		{"Fig. 7b: GMN runtime, data on 2 GPUs vs 1", "< 1", f7.GMN[1].Normalized, below(1), ""},
		{"Fig. 7b: GMN runtime, data on 4 GPUs vs 1", "< 1", f7.GMN[2].Normalized, below(1), ""},
		{"Fig. 10: per-HMC max/min traffic, KMN", "near-uniform", f10[0].Imbalance, within(1, 3), ""},
		{"Fig. 10: per-HMC max/min traffic, CG.S", "up to 11.7×", f10[1].Imbalance, within(5, 30), ""},
		{"Fig. 12: dFBFLY channels, 4 GPUs", "48", float64(channels[4].DFBFLY), exactly(48), ""},
		{"Fig. 12: sFBFLY channels, 4 GPUs", "24", float64(channels[4].SFBFLY), exactly(24), ""},
		{"Fig. 12: dFBFLY channels, 8 GPUs", "112", float64(channels[8].DFBFLY), exactly(112), ""},
		{"Fig. 12: sFBFLY channels, 8 GPUs", "64", float64(channels[8].SFBFLY), exactly(64), ""},
		{"Fig. 14: UMN total speedup over PCIe (geomean)", "8.5×", f14.Speedup("PCIe", "UMN"), within(5, 12), ""},
		{"Fig. 14: GMN kernel speedup over PCIe (geomean)", "3.5×", gmnGeomean, within(2.5, 5), ""},
		{"Fig. 14: GMN kernel speedup over PCIe (max)", "8.8×", gmnMax, within(5, 12), ""},
		{"Fig. 14: CMN total speedup over PCIe (geomean)", "1.8×", f14.Speedup("PCIe", "CMN"), within(2.1, 2.6), deviation},
		{"Fig. 14: CMN-ZC total speedup over PCIe (geomean)", "2.2×", f14.Speedup("PCIe", "CMN-ZC"), within(4.5, 5.5), deviation},
		{"Fig. 15: UGAL gain %, CG.S on dFBFLY", "9.5", ugal["dFBFLY CG.S"], within(-1, 1), deviation},
		{"Fig. 15: UGAL |gain| %, KMN and CP, largest", "~1–2", uniformGain, within(0, 2), ""},
		{"Fig. 16: sFBFLY speedup over sMESH (geomean)", "≥ 1", exp.GeomeanBy(f16, "sMESH", "sFBFLY", kernel), above(1), ""},
		{"Fig. 16: sFBFLY speedup over sMESH-2x (geomean)", "≥ 1", exp.GeomeanBy(f16, "sMESH-2x", "sFBFLY", kernel), above(1), ""},
		{"Fig. 16: sFBFLY speedup over sTORUS-2x (geomean)", "≥ 1", exp.GeomeanBy(f16, "sTORUS-2x", "sFBFLY", kernel), above(1), ""},
		{"Fig. 17: network energy % saved vs sMESH (geomean)", "20.3", 100 * (1 - 1/exp.GeomeanBy(f16, "sMESH", "sFBFLY", energy)), within(15, 25), ""},
		{"Fig. 18: CG.S host time, sFBFLY / overlay", "> 1", host["CG.S sFBFLY"] / host["CG.S overlay"], above(1), ""},
		{"Fig. 18: CG.S host time, sMESH / sFBFLY", "> 1", host["CG.S sMESH"] / host["CG.S sFBFLY"], above(1), ""},
		{"Fig. 18: FT.S host time, sFBFLY / overlay", "> 1", host["FT.S sFBFLY"] / host["FT.S overlay"], above(1), ""},
		{"Fig. 18: FT.S host time, sMESH / sFBFLY", "> 1", host["FT.S sMESH"] / host["FT.S sFBFLY"], above(1), ""},
		{"Fig. 19: smallest speedup step 1→2→4→8 GPUs", "> 1", minStep, above(1), ""},
		{"Fig. 19: BP kernel speedup at 4 GPUs", "scales", bp4, above(2), ""},
		{"Fig. 19: geomean kernel speedup at 8 GPUs", "13.5× at 16", f19geomean, within(3.1, 3.9), deviation},
		{"Fig. 19: CP speedup at 8 GPUs / the highest", "1", at8["CP"] / hi8, within(0.35, 0.5), deviation},
		{"Fig. 19: FWT speedup at 8 GPUs / the lowest", "1", at8["FWT"] / lo8, exactly(1), ""},
		{"§III-B: round-robin / static kernel time, SRAD", "~1.08", ratio(policy["SRAD round-robin"].Kernel, policy["SRAD static-chunk"].Kernel), above(1), ""},
		{"§III-B: round-robin / static kernel time, BP", "~1.08", ratio(policy["BP round-robin"].Kernel, policy["BP static-chunk"].Kernel), above(1), ""},
		{"§III-B: static − round-robin L2 hit, SRAD (pp)", "up to +20", 100 * (policy["SRAD static-chunk"].L2Hit - policy["SRAD round-robin"].L2Hit), within(0, 20), ""},
		{"§III-B: static+steal / static kernel time, SRAD+BP", "< 1% apart",
			ratio(policy["SRAD static+steal"].Kernel+policy["BP static+steal"].Kernel, policy["SRAD static-chunk"].Kernel+policy["BP static-chunk"].Kernel),
			within(0.99, 1.01), ""},
		{"Extension: random / owner-compute kernel time, BP", "—", ratio(placed["BP random"].Kernel, placed["BP owner-compute"].Kernel), above(1), ""},
		{"Extension: random / owner-compute kernel time, SRAD", "—", ratio(placed["SRAD random"].Kernel, placed["SRAD owner-compute"].Kernel), above(1), ""},
		{"Extension: owner-compute / random average hops, BP", "—", placed["BP owner-compute"].AvgHops / placed["BP random"].AvgHops, below(0.1), ""},
		{"Ablation: sFBFLY / dFBFLY kernel time, KMN on GMN", "~1% cost", ratio(sfbfly.Kernel, dfbfly.Kernel), within(0.99, 1.01), ""},
		{"Ablation: dFBFLY / sFBFLY router channels", "2", float64(dfbfly.RouterChannels) / float64(sfbfly.RouterChannels), exactly(2), ""},
		{"Ablation: FCFS / FR-FCFS vault kernel time, BP", "—", ratio(fcfs.Kernel, bp.Kernel), within(0.99, 1.01), noEffect},
		{"Ablation: write-through / write-back L2 kernel, SRAD", "—", ratio(writeThrough.Kernel, writeBack.Kernel), above(1), ""},
		{"Ablation: 8- / 1-cycle pass-through host, CG.S", "—", ratio(deep.Host, shallow.Host), above(1), ""},
		{"Ablation: 10× / 1× page-table sync total, BFS", "—", ratio(slowSync.Total, bfs.Total), above(1), ""},
		{"Ablation: refresh on / off kernel time, BP", "—", ratio(refresh.Kernel, bp.Kernel), above(1), ""},
	}
	for _, c := range claims {
		t.Logf("%-52s paper %-13s ours %-8.4g bound %-12s %s", c.name, c.paper, c.ours, c.bound.desc, c.note)
		if !c.bound.ok(c.ours) {
			t.Errorf("%s: ours %.4g is outside %s (paper: %s)", c.name, c.ours, c.bound.desc, c.paper)
		}
	}
}
