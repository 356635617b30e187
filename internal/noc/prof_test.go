package noc

import (
	"testing"

	"memnet/internal/obs"
	"memnet/internal/prof"
	"memnet/internal/sim"
)

// buildClosedLoop wires the closed-loop saturated-traffic harness used by
// the alloc pin: every delivered response triggers the next request, so
// the network runs at capacity with a bounded packet population and a
// deterministic trajectory.
func buildClosedLoop(t testing.TB, eng *sim.Engine, np *prof.NetProf) *Network {
	t.Helper()
	spec := TopoSpec{
		Kind:            TopoSFBFLY,
		Clusters:        4,
		LocalPerCluster: 4,
		TermChannels:    4,
		CPUCluster:      -1,
	}
	b, err := BuildTopology(eng, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Net
	if np != nil {
		n.Instrument(obs.Probe{Prof: &prof.Run{Net: np}})
	}
	n.RouterSink = func(r int, pkt *Packet) {
		src := pkt.SrcTerm
		n.Release(pkt)
		n.Send(n.NewResponse(r, src, 9))
	}
	seed := uint64(9876)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	routers := n.NumRouters()
	for i := 0; i < n.NumTerminals(); i++ {
		term := b.Terms[i]
		n.Terminal(i).OnDeliver = func(resp *Packet) {
			n.Release(resp)
			n.Send(n.NewRequest(term, int(next()%uint64(routers)), 1))
		}
	}
	const inFlightPerTerm = 32
	for i := 0; i < n.NumTerminals(); i++ {
		for k := 0; k < inFlightPerTerm; k++ {
			n.Send(n.NewRequest(b.Terms[i], int(next()%uint64(routers)), 1))
		}
	}
	return n
}

// TestProfStageSumExact drives saturated closed-loop traffic with the
// profiler attached and checks the decomposition invariant: for every
// class, the summed stage attribution equals the summed end-to-end
// latency, with zero per-packet mismatches — and both agree with the
// network's own latency statistics.
func TestProfStageSumExact(t *testing.T) {
	eng := sim.NewEngine()
	np := &prof.NetProf{}
	n := buildClosedLoop(t, eng, np)

	eng.RunUntil(20000 * n.Clock().Period())

	var violations []string
	np.Audit(func(msg string) { violations = append(violations, msg) })
	if len(violations) > 0 {
		t.Fatalf("prof audit violations: %v", violations)
	}
	if np.Mismatches() != 0 {
		t.Fatalf("got %d per-packet stage-sum mismatches, want 0", np.Mismatches())
	}
	var count, totalPS, stagePS int64
	for ci := range np.Classes {
		agg := &np.Classes[ci]
		count += agg.Count
		totalPS += agg.TotalPS
		for _, v := range agg.Stages {
			stagePS += v
		}
	}
	if count == 0 {
		t.Fatal("no packets retired with the profiler attached")
	}
	if stagePS != totalPS {
		t.Fatalf("stage sum %d ps != end-to-end sum %d ps", stagePS, totalPS)
	}
	if got := n.Stats.Latency.Count(); got != count {
		t.Fatalf("profiler retired %d packets, network delivered %d", count, got)
	}
	if got := int64(n.Stats.Latency.Sum()); got != totalPS {
		t.Fatalf("profiler total latency %d ps, network measured %d ps", totalPS, got)
	}
	// The saturated loop must exercise the contended stages, not just the
	// fixed channel costs.
	stalls := np.Classes[0].Stages[prof.StageCreditStall] +
		np.Classes[0].Stages[prof.StageVCAlloc] +
		np.Classes[0].Stages[prof.StageSwitchArb]
	if stalls == 0 {
		t.Fatal("saturated traffic attributed no stall time at all")
	}
}

// TestProfOnMatchesOff pins passivity at the network level: the identical
// closed-loop scenario, run with and without the profiler, produces
// identical simulation results.
func TestProfOnMatchesOff(t *testing.T) {
	run := func(attach bool) (pkts, flits int64, latency float64, cycle int64) {
		eng := sim.NewEngine()
		var np *prof.NetProf
		if attach {
			np = &prof.NetProf{}
		}
		n := buildClosedLoop(t, eng, np)
		eng.RunUntil(15000 * n.Clock().Period())
		return n.Stats.Latency.Count(), n.FlitsRetired(),
			n.Stats.Latency.Sum(), n.Cycle()
	}
	p1, f1, l1, c1 := run(false)
	p2, f2, l2, c2 := run(true)
	if p1 != p2 || f1 != f2 || l1 != l2 || c1 != c2 {
		t.Fatalf("profiler perturbed the simulation: off=(%d pkts, %d flits, %g ps, %d cycles) on=(%d, %d, %g, %d)",
			p1, f1, l1, c1, p2, f2, l2, c2)
	}
	if p1 == 0 {
		t.Fatal("no traffic flowed")
	}
}

// TestProfEnabledSteadyStateZeroAllocs extends the house allocation
// contract to the enabled path: the record free list and preallocated
// heat cells make even a profiled saturated steady state allocation-free.
func TestProfEnabledSteadyStateZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	n := buildClosedLoop(t, eng, &prof.NetProf{})
	period := n.Clock().Period()

	const warmupCycles, windowCycles = 30000, 200
	eng.RunUntil(sim.Time(warmupCycles) * period)

	before := n.FlitsRetired()
	horizon := eng.Now()
	allocs := testing.AllocsPerRun(20, func() {
		horizon += sim.Time(windowCycles) * period
		eng.RunUntil(horizon)
	})
	hops := n.FlitsRetired() - before
	if hops == 0 {
		t.Fatal("no flits moved during the measurement window")
	}
	if allocs != 0 {
		t.Fatalf("profiled steady state allocated %.1f times per %d-cycle window: want 0",
			allocs, int64(windowCycles))
	}
}

// BenchmarkFlitHopProfDisabled pins the disabled-path cost of the
// profiling hooks: with no profiler attached the saturated steady state
// must stay at 0 allocs/op (every hook is one nil check).
func BenchmarkFlitHopProfDisabled(b *testing.B) {
	benchmarkFlitHop(b, false)
}

// BenchmarkFlitHopProfEnabled measures the enabled-path overhead of the
// per-cycle classification pass and close events.
func BenchmarkFlitHopProfEnabled(b *testing.B) {
	benchmarkFlitHop(b, true)
}

func benchmarkFlitHop(b *testing.B, attach bool) {
	eng := sim.NewEngine()
	var np *prof.NetProf
	if attach {
		np = &prof.NetProf{}
	}
	n := buildClosedLoop(b, eng, np)
	period := n.Clock().Period()
	eng.RunUntil(30000 * period)
	start := n.FlitsRetired()
	horizon := eng.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		horizon += 100 * period
		eng.RunUntil(horizon)
	}
	b.StopTimer()
	if hops := n.FlitsRetired() - start; hops > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/flit-hop")
	}
}
