package gpu

import (
	"testing"

	"memnet/internal/mem"
	"memnet/internal/sim"
)

// sliceTrace yields a fixed op list.
type sliceTrace struct {
	ops []WarpOp
	i   int
}

func (t *sliceTrace) Next() (WarpOp, bool) {
	if t.i >= len(t.ops) {
		return WarpOp{}, false
	}
	op := t.ops[t.i]
	t.i++
	return op, true
}

// testKernel builds per-warp traces from a function.
type testKernel struct {
	name    string
	ctas    int
	threads int
	gen     func(cta, warp int) []WarpOp
}

func (k *testKernel) Name() string       { return k.name }
func (k *testKernel) NumCTAs() int       { return k.ctas }
func (k *testKernel) ThreadsPerCTA() int { return k.threads }
func (k *testKernel) WarpTrace(cta, warp int) WarpTrace {
	return &sliceTrace{ops: k.gen(cta, warp)}
}

// fixedPort responds to every access after a fixed delay.
type fixedPort struct {
	eng      *sim.Engine
	delay    sim.Time
	accesses int
	writes   int
	atomics  int
}

func (p *fixedPort) Access(req *mem.Req) {
	p.accesses++
	if req.Write {
		p.writes++
	}
	if req.Atomic {
		p.atomics++
	}
	p.eng.AfterEvent(p.delay, mem.FinishEvent, req)
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.LaunchLatency = 0
	return cfg
}

func launch(t *testing.T, cfg Config, k Kernel, delay sim.Time) (*GPU, *fixedPort, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	port := &fixedPort{eng: eng, delay: delay}
	g, err := New(eng, 0, cfg, port, new(mem.Reqs))
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time = -1
	ctas := make([]int, k.NumCTAs())
	for i := range ctas {
		ctas[i] = i
	}
	g.Launch(k, ctas, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt < 0 {
		t.Fatal("kernel never completed")
	}
	return g, port, doneAt
}

func TestComputeOnlyKernelCompletes(t *testing.T) {
	k := &testKernel{name: "compute", ctas: 8, threads: 64,
		gen: func(cta, warp int) []WarpOp {
			ops := make([]WarpOp, 10)
			for i := range ops {
				ops[i] = WarpOp{Compute: 8}
			}
			return ops
		}}
	g, port, doneAt := launch(t, smallCfg(), k, 100*sim.Nanosecond)
	if port.accesses != 0 {
		t.Fatal("compute kernel touched memory")
	}
	if g.Stats.CTAs.Value() != 8 {
		t.Fatalf("CTAs = %d, want 8", g.Stats.CTAs.Value())
	}
	// 8 CTAs x 2 warps x 10 ops of 8 cycles: latency-bound per warp chain
	// ~80 cycles at 714ps. It must not be wildly off.
	if doneAt <= 0 || doneAt > sim.Time(1*sim.Microsecond) {
		t.Fatalf("compute kernel took %d ps", doneAt)
	}
	if g.Stats.WarpInstrs.Value() != 8*2*10 {
		t.Fatalf("warp instrs = %d, want 160", g.Stats.WarpInstrs.Value())
	}
}

func TestLoadGoesToMemoryOnceThenHits(t *testing.T) {
	// Two loads of the same line from the same warp: one fill, one L1 hit.
	k := &testKernel{name: "hit", ctas: 1, threads: 32,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{
				{Kind: OpLoad, Addrs: []mem.Addr{0x1000}},
				{Kind: OpLoad, Addrs: []mem.Addr{0x1000}},
			}
		}}
	g, port, _ := launch(t, smallCfg(), k, 100*sim.Nanosecond)
	if port.accesses != 1 {
		t.Fatalf("memory accesses = %d, want 1 (second load must hit L1)", port.accesses)
	}
	if g.L1HitRate() != 0.5 {
		t.Fatalf("L1 hit rate = %v, want 0.5", g.L1HitRate())
	}
}

func TestL2CatchesSharedLinesAcrossSMs(t *testing.T) {
	// Many CTAs load the same line: after the first fill, L2 serves the
	// other SMs' misses without reaching memory each time.
	k := &testKernel{name: "l2", ctas: 8, threads: 32,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{{Kind: OpLoad, Addrs: []mem.Addr{0x4000}}}
		}}
	g, port, _ := launch(t, smallCfg(), k, 200*sim.Nanosecond)
	if port.accesses >= 8 {
		t.Fatalf("memory accesses = %d, want < 8 (L2 sharing)", port.accesses)
	}
	if g.L2HitRate() == 0 {
		t.Fatal("L2 never hit")
	}
}

func TestWriteThroughReachesMemoryEveryStore(t *testing.T) {
	k := &testKernel{name: "wt", ctas: 2, threads: 32,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{
				{Kind: OpStore, Addrs: []mem.Addr{mem.Addr(0x1000 + cta*128)}},
				{Kind: OpStore, Addrs: []mem.Addr{mem.Addr(0x1000 + cta*128)}},
			}
		}}
	_, port, _ := launch(t, smallCfg(), k, 100*sim.Nanosecond)
	if port.writes != 4 {
		t.Fatalf("memory writes = %d, want 4 (write-through, no coalescing of repeats)", port.writes)
	}
}

func TestKernelWaitsForStoreDrain(t *testing.T) {
	const slow = 5 * sim.Microsecond
	k := &testKernel{name: "drain", ctas: 1, threads: 32,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{{Kind: OpStore, Addrs: []mem.Addr{0x2000}}}
		}}
	_, _, doneAt := launch(t, smallCfg(), k, slow)
	if doneAt < slow {
		t.Fatalf("kernel completed at %d before store ack at >= %d", doneAt, slow)
	}
}

func TestAtomicsBypassCachesAndBlock(t *testing.T) {
	k := &testKernel{name: "atomic", ctas: 1, threads: 32,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{
				{Kind: OpLoad, Addrs: []mem.Addr{0x3000}},
				{Kind: OpAtomic, Addrs: []mem.Addr{0x3000}},
				{Kind: OpLoad, Addrs: []mem.Addr{0x3000}},
			}
		}}
	g, port, _ := launch(t, smallCfg(), k, 100*sim.Nanosecond)
	if port.atomics != 1 {
		t.Fatalf("atomics at memory = %d, want 1", port.atomics)
	}
	// Load, atomic (which invalidates), then load again must re-fill:
	// 3 memory accesses in total.
	if port.accesses != 3 {
		t.Fatalf("memory accesses = %d, want 3 (atomic evicted the line)", port.accesses)
	}
	if g.Stats.Atomics.Value() != 1 {
		t.Fatal("atomic not counted")
	}
}

func TestLatencyHidingAcrossWarps(t *testing.T) {
	// 8 warps each issuing one long-latency load: total time should be
	// near one memory latency, not eight (loads overlap across warps).
	const lat = 1 * sim.Microsecond
	k := &testKernel{name: "mlp", ctas: 1, threads: 256,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{{Kind: OpLoad, Addrs: []mem.Addr{mem.Addr(0x10000 + warp*128)}}}
		}}
	_, _, doneAt := launch(t, smallCfg(), k, lat)
	if doneAt > 2*lat {
		t.Fatalf("8 independent loads took %d ps; latency hiding broken", doneAt)
	}
}

func TestMSHRLimitThrottles(t *testing.T) {
	// With MaxOutstanding=1, loads from different warps serialize.
	cfg := smallCfg()
	cfg.MaxOutstanding = 1
	const lat = 1 * sim.Microsecond
	k := &testKernel{name: "mshr", ctas: 1, threads: 128,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{{Kind: OpLoad, Addrs: []mem.Addr{mem.Addr(0x20000 + warp*128)}}}
		}}
	_, _, doneAt := launch(t, cfg, k, lat)
	if doneAt < 4*lat {
		t.Fatalf("4 loads with MSHR=1 took %d ps, want >= %d", doneAt, 4*lat)
	}
}

func TestCTAResidencyLimitedByThreads(t *testing.T) {
	// 1024 threads/CTA: one CTA per SM at a time.
	cfg := smallCfg()
	k := &testKernel{name: "big", ctas: 4, threads: 1024,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{{Compute: 4}}
		}}
	g, _, _ := launch(t, cfg, k, 0)
	if g.Stats.CTAs.Value() != 4 {
		t.Fatal("not all CTAs ran")
	}
	// 32 warps per CTA.
	if g.Stats.WarpInstrs.Value() != 4*32 {
		t.Fatalf("warp instrs = %d, want 128", g.Stats.WarpInstrs.Value())
	}
}

func TestStealCTAs(t *testing.T) {
	eng := sim.NewEngine()
	port := &fixedPort{eng: eng, delay: 10 * sim.Microsecond}
	cfg := smallCfg()
	g, err := New(eng, 0, cfg, port, new(mem.Reqs))
	if err != nil {
		t.Fatal(err)
	}
	k := &testKernel{name: "steal", ctas: 100, threads: 256,
		gen: func(cta, warp int) []WarpOp {
			return []WarpOp{{Kind: OpLoad, Addrs: []mem.Addr{mem.Addr(cta * 4096)}}}
		}}
	ctas := make([]int, 100)
	for i := range ctas {
		ctas[i] = i
	}
	finished := false
	g.Launch(k, ctas, func() { finished = true })
	// Before anything runs, steal 20 CTAs from the tail.
	stolen := g.StealCTAs(20)
	if len(stolen) != 20 || stolen[0] != 80 {
		t.Fatalf("stolen = %d CTAs starting %d, want 20 starting 80", len(stolen), stolen[0])
	}
	eng.Run()
	if !finished {
		t.Fatal("kernel with stolen CTAs never finished")
	}
	if g.Stats.CTAs.Value() != 80 {
		t.Fatalf("executed %d CTAs, want 80", g.Stats.CTAs.Value())
	}
	if got := g.StealCTAs(5); got != nil {
		t.Fatal("stealing from an empty queue should return nil")
	}
}

// TestConcurrentKernelsShareSMs launches two kernels on one GPU at once, as
// SKE does when it relaunches onto a survivor still running its own chunk.
// Together they need two waves of the 32 CTA slots. Round-robin SM filling
// gives each kernel half of every wave, so both finish together; filling
// from the first context would finish the second kernel a wave later.
func TestConcurrentKernelsShareSMs(t *testing.T) {
	eng := sim.NewEngine()
	g, err := New(eng, 0, smallCfg(), &fixedPort{eng: eng, delay: 200 * sim.Nanosecond}, new(mem.Reqs))
	if err != nil {
		t.Fatal(err)
	}
	const ctas = 32 // per kernel: one full wave of 4 SMs x 8 CTAs
	var runs [2][ctas]int
	kernel := func(k int) *testKernel {
		return &testKernel{name: "share", ctas: ctas, threads: 64,
			gen: func(cta, warp int) []WarpOp {
				if warp == 0 {
					runs[k][cta]++
				}
				ops := make([]WarpOp, 64)
				for i := range ops {
					ops[i] = WarpOp{Compute: 4, Kind: OpLoad,
						Addrs: []mem.Addr{mem.Addr(k<<24 + cta*65536 + i*128)}}
				}
				return ops
			}}
	}
	all := make([]int, ctas)
	for i := range all {
		all[i] = i
	}
	var doneAt [2]sim.Time
	for k := range doneAt {
		g.Launch(kernel(k), all, func() { doneAt[k] = eng.Now() })
	}
	eng.Run()
	if doneAt[0] == 0 || doneAt[1] == 0 {
		t.Fatalf("kernels incomplete: done at %v", doneAt)
	}
	for k := range runs {
		for cta, n := range runs[k] {
			if n != 1 {
				t.Fatalf("kernel %d CTA %d ran %d times, want 1", k, cta, n)
			}
		}
	}
	if g.Stats.CTAs.Value() != 2*ctas {
		t.Fatalf("CTAs = %d, want %d", g.Stats.CTAs.Value(), 2*ctas)
	}
	// Serialized filling puts the second completion near 2x the first.
	lo, hi := min(doneAt[0], doneAt[1]), max(doneAt[0], doneAt[1])
	if 4*hi > 5*lo {
		t.Fatalf("concurrent kernels serialized: done at %d and %d", doneAt[0], doneAt[1])
	}
}

func TestEmptyLaunchCompletes(t *testing.T) {
	eng := sim.NewEngine()
	g, err := New(eng, 0, smallCfg(), &fixedPort{eng: eng}, new(mem.Reqs))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	g.Launch(&testKernel{name: "none", ctas: 0, threads: 32,
		gen: func(int, int) []WarpOp { return nil }}, nil, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("empty launch never completed")
	}
}

func TestBadConfigRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, 0, Config{}, &fixedPort{eng: eng}, new(mem.Reqs)); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := New(eng, 0, smallCfg(), nil, new(mem.Reqs)); err == nil {
		t.Fatal("nil port accepted")
	}
}

func TestIssueWidthThroughput(t *testing.T) {
	// Dual-issue SMs must finish an issue-bound kernel roughly twice as
	// fast as single-issue ones.
	run := func(width int) sim.Time {
		cfg := smallCfg()
		cfg.Cores = 1
		cfg.IssuePerCycle = width
		k := &testKernel{name: "issue", ctas: 8, threads: 1024,
			gen: func(cta, warp int) []WarpOp {
				ops := make([]WarpOp, 32)
				for i := range ops {
					ops[i] = WarpOp{Compute: 1}
				}
				return ops
			}}
		_, _, doneAt := launch(t, cfg, k, 0)
		return doneAt
	}
	single, dual := run(1), run(2)
	if dual*3 > single*2 { // expect ~2x; allow slack
		t.Fatalf("dual issue %d not meaningfully faster than single %d", dual, single)
	}
}

func TestL2BankContention(t *testing.T) {
	// All traffic to one L2 bank serializes; spread across banks it
	// should be faster.
	run := func(banks int) sim.Time {
		cfg := smallCfg()
		cfg.L2Banks = banks
		k := &testKernel{name: "banks", ctas: 8, threads: 256,
			gen: func(cta, warp int) []WarpOp {
				var ops []WarpOp
				for i := 0; i < 8; i++ {
					ops = append(ops, WarpOp{Kind: OpLoad,
						Addrs: []mem.Addr{mem.Addr(0x100000 + (cta*8+warp)*8192 + i*128)}})
				}
				return ops
			}}
		_, _, doneAt := launch(t, cfg, k, 50*sim.Nanosecond)
		return doneAt
	}
	one, eight := run(1), run(8)
	if eight >= one {
		t.Fatalf("8 L2 banks (%d) not faster than 1 (%d)", eight, one)
	}
}
