package main

import (
	"fmt"
	"math/rand"
	"time"

	"memnet/internal/core"
	"memnet/internal/exp"
)

// fig14Scale is the workload scale of every Fig. 14 design point. Host time
// barely shrinks below it (most kernels are at their minimum grid), so one
// pass over the 98 points takes about 14 s on a 2-CPU x86-64 host.
const fig14Scale = 0.02

// designPoint is one bar of Fig. 14: a Table II workload on a Table III
// architecture.
type designPoint struct {
	wl   string
	arch core.Arch
}

func (p designPoint) key() string { return "fig14/" + p.wl + "/" + p.arch.String() }

func (p designPoint) config() core.Config {
	cfg := core.DefaultConfig(p.arch, p.wl)
	cfg.Scale = fig14Scale
	return cfg
}

// fig14Points is the full 14 × 7 matrix in the paper's order; tiny keeps
// BP on the PCIe baseline and on UMN.
func fig14Points(tiny bool) []designPoint {
	var pts []designPoint
	for _, wl := range exp.Fig14Workloads() {
		for _, a := range core.Architectures() {
			pts = append(pts, designPoint{wl, a})
		}
	}
	if tiny {
		return []designPoint{pts[0], pts[len(core.Architectures())-1]}
	}
	return pts
}

// shuffled returns a seeded permutation of xs. The seed only orders the
// jobs; every job's output is independent of its position.
func shuffled[T any](xs []T, seed int64) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// simTotals accumulates what the design points report, per pass.
type simTotals struct {
	points         int
	simPS          float64 // simulated time, ps
	execS          float64 // host seconds inside System.Execute
	flits, cycles  int64
	routerVisits   float64 // Σ stepped cycles × routers
	busy, capacity int64   // channel flit-cycles busy / available
	l1, l2, row    float64 // Σ per-point hit rates
	stolen, stall  int64
}

// runFig14 builds and runs every design point one after another, caches
// empty in every point as in the paper's runs, for as many whole passes as
// fit in o.seconds (at least one).
func runFig14(o options, tr *tracer) (*outcome, error) {
	pts := shuffled(fig14Points(o.tiny), o.seed)
	out := newOutcome()
	err := repeatSetup(out, tr, "core.NewSystem ×"+fmt.Sprint(len(pts)), func() error {
		for _, p := range pts {
			if _, err := core.NewSystem(p.config()); err != nil {
				return fmt.Errorf("%s: %w", p.key(), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tot simTotals
	win := openWindow()
	for {
		passStart := time.Now()
		for _, p := range pts {
			runPoint(out, tr, &tot, p)
		}
		out.passes++
		if o.seconds-time.Since(win.start) < time.Since(passStart) {
			break
		}
	}
	win.close(out)
	tot.report(out)
	return out, nil
}

// runPoint builds and executes one design point and checks its result.
func runPoint(out *outcome, tr *tracer, tot *simTotals, p designPoint) {
	out.attempted++
	job := tr.begin(kindJob, p.key(), 0)
	defer tr.end(job)
	t0 := time.Now()
	sp := tr.begin(kindSetup, spanNewSystem, job)
	sys, err := core.NewSystem(p.config())
	tr.end(sp)
	if err != nil {
		out.fail("%s: %v", p.key(), err)
		return
	}
	t1 := time.Now()
	sp = tr.begin(kindRun, spanExecute, job)
	res, err := sys.Execute()
	tr.end(sp)
	t2 := time.Now()
	if err != nil {
		out.fail("%s: %v", p.key(), err)
		return
	}
	out.lat = append(out.lat, jobLat{ms: float64(t2.Sub(t0)) / 1e6, cold: true})
	checkPoint(out, p.key(), statsOf(res))

	net := sys.Network()
	busy, capacity := net.AllChannelBusy()
	tot.points++
	tot.simPS += float64(res.Total)
	tot.execS += t2.Sub(t1).Seconds()
	tot.flits += net.FlitsRetired()
	tot.cycles += net.Cycle()
	tot.routerVisits += float64(net.Cycle()) * float64(net.NumRouters())
	tot.busy += busy
	tot.capacity += capacity
	tot.l1 += res.L1HitRate
	tot.l2 += res.L2HitRate
	tot.row += res.RowHitRate
	tot.stolen += res.CTAsStolen
	tot.stall += res.HostStallPS
}

func (t *simTotals) report(out *outcome) {
	if t.points == 0 || t.execS == 0 {
		return
	}
	passes := float64(out.passes)
	n := float64(t.points)
	l := out.layer
	l["sim_us_per_s"] = t.simPS / 1e6 / t.execS
	l["flits_per_s"] = float64(t.flits) / t.execS
	l["sim.simulated_us"] = t.simPS / 1e6 / passes
	l["noc.flits_retired"] = float64(t.flits) / passes
	l["noc.cycles_stepped"] = float64(t.cycles) / passes
	if t.flits > 0 {
		l["noc.router_visits_per_flit"] = t.routerVisits / float64(t.flits)
	}
	if t.capacity > 0 {
		l["noc.channel_util"] = float64(t.busy) / float64(t.capacity)
	}
	l["gpu.l1_hit_rate"] = t.l1 / n
	l["gpu.l2_hit_rate"] = t.l2 / n
	l["hmc.row_hit_rate"] = t.row / n
	l["ske.ctas_stolen"] = float64(t.stolen) / passes
	l["cpu.stall_us"] = float64(t.stall) / 1e6 / passes
}
