package core

import (
	"testing"

	"memnet/internal/noc"
	"memnet/internal/ske"
)

// tiny returns a fast-simulating config.
func tiny(arch Arch, wl string) Config {
	cfg := DefaultConfig(arch, wl)
	cfg.Scale = 0.05
	cfg.GPU.Cores = 16
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllArchitecturesRunVA(t *testing.T) {
	results := map[Arch]*Result{}
	for _, arch := range Architectures() {
		res := mustRun(t, tiny(arch, "VA"))
		results[arch] = res
		if res.Kernel <= 0 || res.Total <= 0 {
			t.Fatalf("%v: empty runtime %+v", arch, res)
		}
		if arch.needsCopy() && res.H2D <= 0 {
			t.Fatalf("%v: memcpy architecture reported no H2D time", arch)
		}
		if !arch.needsCopy() && res.H2D+res.D2H != 0 {
			t.Fatalf("%v: no-copy architecture reported copy time", arch)
		}
	}
	// The paper's headline ordering (Fig. 14): UMN is fastest overall;
	// the PCIe baseline is worst; GMN beats PCIe on kernel time.
	if results[UMN].Total >= results[PCIe].Total {
		t.Fatalf("UMN total %d not below PCIe %d", results[UMN].Total, results[PCIe].Total)
	}
	if results[GMN].Kernel >= results[PCIe].Kernel {
		t.Fatalf("GMN kernel %d not below PCIe %d", results[GMN].Kernel, results[PCIe].Kernel)
	}
	if results[CMN].H2D >= results[PCIe].H2D {
		t.Fatalf("CMN memcpy %d not faster than PCIe %d", results[CMN].H2D, results[PCIe].H2D)
	}
	// GMN-ZC == PCIe-ZC: "the GPU memory was never accessed and the
	// memory network did not make any difference" (Section VI-B).
	rel := float64(results[GMNZC].Total-results[PCIeZC].Total) / float64(results[PCIeZC].Total)
	if rel < -0.05 || rel > 0.05 {
		t.Fatalf("GMN-ZC total %d differs from PCIe-ZC %d by %.1f%%",
			results[GMNZC].Total, results[PCIeZC].Total, 100*rel)
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, tiny(UMN, "BFS"))
	b := mustRun(t, tiny(UMN, "BFS"))
	if a.Total != b.Total || a.Kernel != b.Kernel {
		t.Fatalf("identical configs diverged: %d/%d vs %d/%d", a.Kernel, a.Total, b.Kernel, b.Total)
	}
}

func TestAllCTAsExecuteExactlyOnce(t *testing.T) {
	cfg := tiny(GMN, "SRAD")
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range res.CTAsPerGPU {
		total += n
	}
	want := int64(s.Workload().NumCTAs() * s.Workload().Iterations())
	if total != want {
		t.Fatalf("executed %d CTAs, want %d", total, want)
	}
}

func TestTrafficImbalanceCGvsKMN(t *testing.T) {
	// Fig. 10: KMN traffic is near-uniform across HMCs; CG.S is heavily
	// imbalanced (up to 11.7x in the paper).
	kmn := mustRun(t, tiny(UMN, "KMN"))
	cg := mustRun(t, tiny(UMN, "CG.S"))
	rk := kmn.Traffic.MaxMinColRatio()
	rc := cg.Traffic.MaxMinColRatio()
	if rc <= rk {
		t.Fatalf("CG.S imbalance %.2f not above KMN %.2f", rc, rk)
	}
	if rk > 3 {
		t.Fatalf("KMN imbalance %.2f too high for a uniform workload", rk)
	}
	if rc < 2 {
		t.Fatalf("CG.S imbalance %.2f too low", rc)
	}
}

func TestOverlayHelpsHostPhases(t *testing.T) {
	// Fig. 18: the overlay design lowers host-thread (CPU) time for CG.S.
	plain := tiny(UMN, "CG.S")
	over := tiny(UMN, "CG.S")
	over.Overlay = true
	rp := mustRun(t, plain)
	ro := mustRun(t, over)
	if rp.Host <= 0 || ro.Host <= 0 {
		t.Fatal("CG.S must spend host time")
	}
	if ro.Host >= rp.Host {
		t.Fatalf("overlay host time %d not below plain sFBFLY %d", ro.Host, rp.Host)
	}
	if ro.AvgPassHops <= 0 {
		t.Fatal("overlay run never used pass-through hops")
	}
}

func TestSchedulerPoliciesComplete(t *testing.T) {
	// Section III-B: static chunking preserves inter-CTA locality, so its
	// cache hit rates must beat fine-grained round-robin.
	st := tiny(UMN, "SRAD")
	st.Sched = ske.StaticChunk
	rr := tiny(UMN, "SRAD")
	rr.Sched = ske.RoundRobin
	stl := tiny(UMN, "SRAD")
	stl.Sched = ske.StaticSteal
	rs, rrr, rst := mustRun(t, st), mustRun(t, rr), mustRun(t, stl)
	if rs.L2HitRate < rrr.L2HitRate {
		t.Fatalf("static L2 hit %.3f below round-robin %.3f", rs.L2HitRate, rrr.L2HitRate)
	}
	// Stealing must not break anything and should be within noise of
	// static (the paper found <1% difference).
	var sum1, sum2 int64
	for _, n := range rs.CTAsPerGPU {
		sum1 += n
	}
	for _, n := range rst.CTAsPerGPU {
		sum2 += n
	}
	if sum1 != sum2 {
		t.Fatalf("steal policy lost CTAs: %d vs %d", sum2, sum1)
	}
}

func TestTopologiesRunGMN(t *testing.T) {
	for _, topo := range []noc.TopoKind{noc.TopoSFBFLY, noc.TopoDFBFLY, noc.TopoDDFLY, noc.TopoSMESH, noc.TopoSTORUS} {
		cfg := tiny(GMN, "BFS")
		cfg.Topo = topo
		res := mustRun(t, cfg)
		if res.Kernel <= 0 {
			t.Fatalf("%v: no kernel time", topo)
		}
	}
}

func TestMultiplierAddsChannels(t *testing.T) {
	a := tiny(GMN, "VA")
	a.Topo = noc.TopoSMESH
	b := tiny(GMN, "VA")
	b.Topo = noc.TopoSMESH
	b.TopoMultiplier = 2
	ra, rb := mustRun(t, a), mustRun(t, b)
	if rb.RouterChannels != 2*ra.RouterChannels {
		t.Fatalf("2x mesh channels %d, want %d", rb.RouterChannels, 2*ra.RouterChannels)
	}
}

func TestUGALAndAdaptiveRun(t *testing.T) {
	cfg := tiny(GMN, "CG.S")
	cfg.Topo = noc.TopoDFBFLY
	cfg.UGAL = true
	cfg.Adaptive = true
	res := mustRun(t, cfg)
	if res.Kernel <= 0 {
		t.Fatal("no kernel time under UGAL")
	}
}

func TestScalingMoreGPUsFaster(t *testing.T) {
	run := func(g int) *Result {
		cfg := tiny(UMN, "BP")
		cfg.NumGPUs = g
		cfg.Scale = 0.5 // enough CTAs to oversubscribe a single GPU
		return mustRun(t, cfg)
	}
	r1, r4 := run(1), run(4)
	if r4.Kernel*2 >= r1.Kernel {
		t.Fatalf("4 GPUs kernel %d not at least 2x faster than 1 GPU %d", r4.Kernel, r1.Kernel)
	}
}

func TestEnergyAccounting(t *testing.T) {
	res := mustRun(t, tiny(UMN, "VA"))
	if res.NetEnergyJ <= 0 || res.NetActiveJ <= 0 || res.NetIdleJ <= 0 {
		t.Fatalf("bad energy: %+v", res)
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	bad := DefaultConfig(PCIe, "VA")
	bad.NumGPUs = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero GPUs accepted")
	}
	bad = DefaultConfig(GMN, "VA")
	bad.Overlay = true
	if _, err := Run(bad); err == nil {
		t.Fatal("overlay on GMN accepted")
	}
	bad = DefaultConfig(UMN, "NOPE")
	if _, err := Run(bad); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad = DefaultConfig(UMN, "VA")
	bad.ExecGPUs = 9
	if _, err := Run(bad); err == nil {
		t.Fatal("ExecGPUs > NumGPUs accepted")
	}
}

func TestArchStringRoundTrip(t *testing.T) {
	for _, a := range Architectures() {
		got, err := ParseArch(a.String())
		if err != nil || got != a {
			t.Errorf("ParseArch(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseArch("nope"); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestHostComputeOnlyForCGAndFT(t *testing.T) {
	va := mustRun(t, tiny(UMN, "VA"))
	if va.Host != 0 {
		t.Fatal("VA reported host compute time")
	}
	ft := mustRun(t, tiny(UMN, "FT.S"))
	if ft.Host <= 0 {
		t.Fatal("FT.S reported no host compute time")
	}
}

func TestP99AtLeastMeanLatency(t *testing.T) {
	res := mustRun(t, tiny(UMN, "BFS"))
	if res.P99PktLatency < res.AvgPktLatency {
		t.Fatalf("P99 %d below mean %d", res.P99PktLatency, res.AvgPktLatency)
	}
	if res.P99PktLatency <= 0 {
		t.Fatal("no P99 recorded")
	}
}
