package ske

import (
	"testing"
	"testing/quick"

	"memnet/internal/audit"
	"memnet/internal/gpu"
	"memnet/internal/mem"
	"memnet/internal/obs"
	"memnet/internal/sim"
)

type fixedPort struct {
	eng   *sim.Engine
	delay sim.Time
}

func (p *fixedPort) Access(req *mem.Req) {
	p.eng.AfterEvent(p.delay, mem.FinishEvent, req)
}

type sliceTrace struct {
	ops []gpu.WarpOp
	i   int
}

func (t *sliceTrace) Next() (gpu.WarpOp, bool) {
	if t.i >= len(t.ops) {
		return gpu.WarpOp{}, false
	}
	op := t.ops[t.i]
	t.i++
	return op, true
}

type kern struct {
	ctas int
	ops  func(cta, warp int) []gpu.WarpOp
}

func (k *kern) Name() string       { return "k" }
func (k *kern) NumCTAs() int       { return k.ctas }
func (k *kern) ThreadsPerCTA() int { return 64 }
func (k *kern) WarpTrace(cta, warp int) gpu.WarpTrace {
	return &sliceTrace{ops: k.ops(cta, warp)}
}

func mkGPUs(t *testing.T, eng *sim.Engine, n int) []*gpu.GPU {
	t.Helper()
	cfg := gpu.DefaultConfig()
	cfg.Cores = 4
	cfg.LaunchLatency = 0
	var gs []*gpu.GPU
	for i := 0; i < n; i++ {
		g, err := gpu.New(eng, i, cfg, &fixedPort{eng: eng, delay: 200 * sim.Nanosecond}, new(mem.Reqs))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

func TestAssignStaticChunkContiguous(t *testing.T) {
	parts := Assign(StaticChunk, 10, 4)
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}, {8, 9}}
	for g := range want {
		if len(parts[g]) != len(want[g]) {
			t.Fatalf("gpu %d got %v, want %v", g, parts[g], want[g])
		}
		for i := range want[g] {
			if parts[g][i] != want[g][i] {
				t.Fatalf("gpu %d got %v, want %v", g, parts[g], want[g])
			}
		}
	}
}

func TestAssignRoundRobinInterleaves(t *testing.T) {
	parts := Assign(RoundRobin, 8, 4)
	for g := 0; g < 4; g++ {
		if len(parts[g]) != 2 || parts[g][0] != g || parts[g][1] != g+4 {
			t.Fatalf("gpu %d got %v", g, parts[g])
		}
	}
}

func TestQuickAssignPartitions(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := int(nRaw)
		g := int(gRaw)%8 + 1
		for _, pol := range []Policy{StaticChunk, RoundRobin} {
			parts := Assign(pol, n, g)
			seen := make(map[int]bool)
			for _, part := range parts {
				for _, c := range part {
					if c < 0 || c >= n || seen[c] {
						return false
					}
					seen[c] = true
				}
			}
			if len(seen) != n {
				return false
			}
			// Balance: sizes differ by at most 1.
			min, max := n+1, -1
			for _, part := range parts {
				if len(part) < min {
					min = len(part)
				}
				if len(part) > max {
					max = len(part)
				}
			}
			if n >= g && max-min > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLaunchRunsAllCTAsOnce(t *testing.T) {
	eng := sim.NewEngine()
	gs := mkGPUs(t, eng, 4)
	rt, err := New(eng, DefaultConfig(), gs)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(map[int]int)
	k := &kern{ctas: 37, ops: func(cta, warp int) []gpu.WarpOp {
		if warp == 0 {
			ran[cta]++
		}
		return []gpu.WarpOp{{Compute: 4}, {Kind: gpu.OpLoad, Addrs: []mem.Addr{mem.Addr(cta * 4096)}}}
	}}
	done := false
	rt.Launch(k, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("virtual kernel never completed")
	}
	if len(ran) != 37 {
		t.Fatalf("ran %d distinct CTAs, want 37", len(ran))
	}
	for cta, n := range ran {
		if n != 1 {
			t.Fatalf("CTA %d ran %d times", cta, n)
		}
	}
	var total int64
	for i := range rt.Stats.PerGPU {
		total += rt.Stats.PerGPU[i].Value()
	}
	if total != 37 {
		t.Fatalf("per-GPU counts sum to %d, want 37", total)
	}
}

func TestPageTableSyncDelaysLaunch(t *testing.T) {
	eng := sim.NewEngine()
	gs := mkGPUs(t, eng, 2)
	cfg := DefaultConfig()
	cfg.PageTableSync = 100 * sim.Microsecond
	rt, _ := New(eng, cfg, gs)
	var doneAt sim.Time
	k := &kern{ctas: 2, ops: func(int, int) []gpu.WarpOp { return []gpu.WarpOp{{Compute: 1}} }}
	rt.Launch(k, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt < cfg.PageTableSync {
		t.Fatalf("kernel done at %d, before page-table sync at %d", doneAt, cfg.PageTableSync)
	}
}

func TestStealingRebalances(t *testing.T) {
	eng := sim.NewEngine()
	gs := mkGPUs(t, eng, 2)
	cfg := DefaultConfig()
	cfg.Policy = StaticSteal
	cfg.StealChunk = 8
	rt, _ := New(eng, cfg, gs)
	// Imbalanced kernel: CTAs of GPU 1's chunk are far heavier. Each GPU
	// has 4 SMs x 8 slots = 32 resident CTAs, so 256 CTAs leave a queue
	// to steal from.
	k := &kern{ctas: 256, ops: func(cta, warp int) []gpu.WarpOp {
		n := 1
		if cta >= 128 {
			n = 60
		}
		ops := make([]gpu.WarpOp, n)
		for i := range ops {
			ops[i] = gpu.WarpOp{Kind: gpu.OpLoad, Addrs: []mem.Addr{mem.Addr(cta*65536 + i*128)}}
		}
		return ops
	}}
	done := false
	rt.Launch(k, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("kernel never completed")
	}
	if rt.Stats.CTAsStolen.Value() == 0 {
		t.Fatal("no CTAs were stolen despite imbalance")
	}
	if rt.Stats.PerGPU[0].Value() <= 128 {
		t.Fatalf("GPU 0 executed %d CTAs; stealing should add work", rt.Stats.PerGPU[0].Value())
	}
}

func TestAssignDegenerateInputs(t *testing.T) {
	for _, pol := range []Policy{StaticChunk, RoundRobin, StaticSteal} {
		// No GPUs: must not divide by zero; nil means "nothing to launch".
		if parts := Assign(pol, 10, 0); parts != nil {
			t.Fatalf("%v: Assign(10, 0) = %v, want nil", pol, parts)
		}
		if parts := Assign(pol, 10, -3); parts != nil {
			t.Fatalf("%v: Assign(10, -3) = %v, want nil", pol, parts)
		}
		// No CTAs: one empty partition per GPU.
		for _, n := range []int{0, -7} {
			parts := Assign(pol, n, 4)
			if len(parts) != 4 {
				t.Fatalf("%v: Assign(%d, 4) has %d partitions, want 4", pol, n, len(parts))
			}
			for g, part := range parts {
				if len(part) != 0 {
					t.Fatalf("%v: Assign(%d, 4) gave GPU %d CTAs %v", pol, n, g, part)
				}
			}
		}
	}
}

// TestStealChunkLargerThanVictimQueue exercises the relaunch path when the
// victim holds fewer queued CTAs than StealChunk: StealCTAs must hand over
// the short remainder, and the per-GPU counters must still conserve CTAs.
func TestStealChunkLargerThanVictimQueue(t *testing.T) {
	eng := sim.NewEngine()
	gs := mkGPUs(t, eng, 2)
	cfg := DefaultConfig()
	cfg.Policy = StaticSteal
	cfg.StealChunk = 64 // far larger than any victim queue remnant
	rt, _ := New(eng, cfg, gs)
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	rt.Instrument(obs.Probe{Audit: reg})
	k := &kern{ctas: 256, ops: func(cta, warp int) []gpu.WarpOp {
		n := 1
		if cta >= 128 {
			n = 60
		}
		ops := make([]gpu.WarpOp, n)
		for i := range ops {
			ops[i] = gpu.WarpOp{Kind: gpu.OpLoad, Addrs: []mem.Addr{mem.Addr(cta*65536 + i*128)}}
		}
		return ops
	}}
	doneCount := 0
	rt.Launch(k, func() { doneCount++ })
	eng.Run()
	if doneCount != 1 {
		t.Fatalf("completion fired %d times, want exactly once", doneCount)
	}
	if rt.Stats.CTAsStolen.Value() == 0 {
		t.Fatal("oversized StealChunk prevented stealing entirely")
	}
	var total int64
	for i := range rt.Stats.PerGPU {
		if v := rt.Stats.PerGPU[i].Value(); v < 0 {
			t.Fatalf("GPU %d CTA count went negative: %d", i, v)
		}
		total += rt.Stats.PerGPU[i].Value()
	}
	if total != 256 {
		t.Fatalf("per-GPU counts sum to %d after stealing, want 256", total)
	}
	if reg.Check() != 0 {
		t.Fatalf("steal run violated invariants: %v", reg.Violations())
	}
}

// TestStealRacingFinalCompletion drives repeated single-CTA steals right up
// to the kernel's last CTA: the thief's relaunches must not decrement the
// in-flight GPU count early or fire the completion callback twice.
func TestStealRacingFinalCompletion(t *testing.T) {
	eng := sim.NewEngine()
	gs := mkGPUs(t, eng, 2)
	cfg := DefaultConfig()
	cfg.Policy = StaticSteal
	cfg.StealChunk = 1
	rt, _ := New(eng, cfg, gs)
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	rt.Instrument(obs.Probe{Audit: reg})
	k := &kern{ctas: 80, ops: func(cta, warp int) []gpu.WarpOp {
		if cta < 40 {
			return []gpu.WarpOp{{Compute: 1}} // GPU 0's chunk drains instantly
		}
		ops := make([]gpu.WarpOp, 50)
		for i := range ops {
			ops[i] = gpu.WarpOp{Kind: gpu.OpLoad, Addrs: []mem.Addr{mem.Addr(cta*65536 + i*128)}}
		}
		return ops
	}}
	doneCount := 0
	rt.Launch(k, func() { doneCount++ })
	eng.Run()
	if doneCount != 1 {
		t.Fatalf("completion fired %d times, want exactly once", doneCount)
	}
	if rt.remaining != 0 {
		t.Fatalf("in-flight GPU count %d after completion, want 0", rt.remaining)
	}
	var total int64
	for i := range rt.Stats.PerGPU {
		total += rt.Stats.PerGPU[i].Value()
	}
	if total != 80 {
		t.Fatalf("per-GPU counts sum to %d, want 80", total)
	}
	if reg.Check() != 0 {
		t.Fatalf("steal-race run violated invariants: %v", reg.Violations())
	}
}

func TestLaunchWhileBusyPanics(t *testing.T) {
	eng := sim.NewEngine()
	gs := mkGPUs(t, eng, 2)
	rt, _ := New(eng, DefaultConfig(), gs)
	k := &kern{ctas: 4, ops: func(int, int) []gpu.WarpOp { return []gpu.WarpOp{{Compute: 1}} }}
	rt.Launch(k, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second launch did not panic")
		}
	}()
	rt.Launch(k, nil)
}

func TestNoGPUsRejected(t *testing.T) {
	if _, err := New(sim.NewEngine(), DefaultConfig(), nil); err == nil {
		t.Fatal("runtime with no GPUs accepted")
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, p := range []Policy{StaticChunk, RoundRobin, StaticSteal} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMoreGPUsFasterOnParallelKernel(t *testing.T) {
	run := func(n int) sim.Time {
		eng := sim.NewEngine()
		gs := mkGPUs(t, eng, n)
		cfg := DefaultConfig()
		cfg.PageTableSync = 0
		rt, _ := New(eng, cfg, gs)
		k := &kern{ctas: 128, ops: func(cta, warp int) []gpu.WarpOp {
			var ops []gpu.WarpOp
			for i := 0; i < 16; i++ {
				ops = append(ops, gpu.WarpOp{Compute: 4,
					Kind: gpu.OpLoad, Addrs: []mem.Addr{mem.Addr(cta*65536 + i*128)}})
			}
			return ops
		}}
		var end sim.Time
		rt.Launch(k, func() { end = eng.Now() })
		eng.Run()
		return end
	}
	t1, t4 := run(1), run(4)
	if t4*2 >= t1 {
		t.Fatalf("4 GPUs (%d) not at least 2x faster than 1 GPU (%d)", t4, t1)
	}
}

func TestStaticStealAssignsLikeChunk(t *testing.T) {
	a := Assign(StaticChunk, 25, 4)
	b := Assign(StaticSteal, 25, 4)
	for g := range a {
		if len(a[g]) != len(b[g]) {
			t.Fatalf("steal initial assignment differs from chunk at gpu %d", g)
		}
		for i := range a[g] {
			if a[g][i] != b[g][i] {
				t.Fatal("steal policy must start from static chunks")
			}
		}
	}
}

func TestGPUFailureWatchdogRequeuesAndConserves(t *testing.T) {
	eng := sim.NewEngine()
	gs := mkGPUs(t, eng, 4)
	cfg := DefaultConfig()
	cfg.PageTableSync = 0
	rt, err := New(eng, cfg, gs)
	if err != nil {
		t.Fatal(err)
	}
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	rt.Instrument(obs.Probe{Audit: reg})
	ran := make(map[int]int)
	k := &kern{ctas: 64, ops: func(cta, warp int) []gpu.WarpOp {
		if warp == 0 {
			ran[cta]++
		}
		return []gpu.WarpOp{{Compute: 500},
			{Kind: gpu.OpLoad, Addrs: []mem.Addr{mem.Addr(cta * 4096)}},
			{Compute: 500}}
	}}
	done := false
	rt.Launch(k, func() { done = true })
	// The interval must exceed the longest gap between progress-counter
	// increments on a healthy device, or survivors get falsely reclaimed.
	rt.StartWatchdog(2 * sim.Microsecond)
	// Fail-stop GPU 2 just after CTAs start flowing; the watchdog must spot
	// the busy device whose progress froze and re-queue its CTAs.
	eng.After(200*sim.Nanosecond, func() { gs[2].Kill() })
	eng.Run()
	if !done {
		t.Fatal("kernel never completed after GPU failure")
	}
	if rt.Stats.GPUsFailed.Value() != 1 {
		t.Fatalf("GPUsFailed = %d, want 1", rt.Stats.GPUsFailed.Value())
	}
	if rt.Stats.CTAsRequeued.Value() == 0 {
		t.Fatal("dead GPU's CTAs were not re-queued")
	}
	// Every CTA ran (re-queued in-flight CTAs restart, so >1 is legal).
	if len(ran) != 64 {
		t.Fatalf("%d distinct CTAs ran, want 64", len(ran))
	}
	// Accepted ledger stays balanced: per-GPU executed counts cover the
	// kernel exactly, the dead GPU owes nothing, and the audits agree.
	var total int64
	for i := range rt.Stats.PerGPU {
		if v := rt.Stats.PerGPU[i].Value(); v < 0 {
			t.Fatalf("GPU %d CTA count negative: %d", i, v)
		} else {
			total += v
		}
	}
	if total != 64 {
		t.Fatalf("per-GPU counts sum to %d, want 64", total)
	}
	if rt.owed[2] != 0 || !rt.dead[2] {
		t.Fatalf("dead GPU bookkeeping wrong: owed=%d dead=%v", rt.owed[2], rt.dead[2])
	}
	if reg.Check() != 0 {
		t.Fatalf("audit violations after GPU failure: %v", reg.Violations())
	}
	if rt.Err() != nil {
		t.Fatalf("unexpected fatal error: %v", rt.Err())
	}
}

func TestAllGPUsFailedIsFatal(t *testing.T) {
	eng := sim.NewEngine()
	gs := mkGPUs(t, eng, 2)
	cfg := DefaultConfig()
	cfg.PageTableSync = 0
	rt, err := New(eng, cfg, gs)
	if err != nil {
		t.Fatal(err)
	}
	k := &kern{ctas: 16, ops: func(cta, warp int) []gpu.WarpOp {
		return []gpu.WarpOp{{Compute: 2000}}
	}}
	rt.Launch(k, func() {})
	eng.After(time500ns(), func() {
		gs[0].Kill()
		gs[1].Kill()
		if err := rt.ReclaimGPU(0); err != nil {
			t.Errorf("first reclaim: %v", err)
		}
		if err := rt.ReclaimGPU(1); err == nil {
			t.Error("reclaiming the last GPU with work pending should fail")
		}
	})
	eng.Run()
	if rt.Err() == nil {
		t.Fatal("runtime has no fatal error after losing every GPU")
	}
}

func time500ns() sim.Time { return 500 * sim.Nanosecond }
