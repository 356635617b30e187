package core

import (
	"testing"

	"memnet/internal/cpu"
	"memnet/internal/gpu"
	"memnet/internal/mem"
	"memnet/internal/sim"
)

// Address strides that put lines into one cache set. gpuSetStride maps
// lines to one set of both the Table I GPU L1 (64 sets of 128 B lines)
// and L2 (1,024 sets); gpuL1Stride to one L1 set but distinct L2 sets.
// hostSetStride maps lines to one set of the host L1 (256 sets of 64 B
// lines) and L2 (16,384 sets).
const (
	gpuSetStride  = 1024 * 128
	gpuL1Stride   = 64 * 128
	hostSetStride = 16384 * 64
)

// loopTrace repeats one memory instruction forever, each time on the next
// line of a ring. It reuses one address slot, so Next allocates nothing.
type loopTrace struct {
	kind gpu.OpKind
	ring []mem.Addr
	i    int
	slot [1]mem.Addr
}

func (t *loopTrace) Next() (gpu.WarpOp, bool) {
	t.slot[0] = t.ring[t.i%len(t.ring)]
	t.i++
	return gpu.WarpOp{Kind: t.kind, Addrs: t.slot[:]}, true
}

// loopKernel is one CTA whose warps run loopTraces that never end.
type loopKernel struct{ warps []*loopTrace }

func (k *loopKernel) Name() string                     { return "loop" }
func (k *loopKernel) NumCTAs() int                     { return 1 }
func (k *loopKernel) ThreadsPerCTA() int               { return 32 * len(k.warps) }
func (k *loopKernel) WarpTrace(_, w int) gpu.WarpTrace { return k.warps[w] }

// hostLoop loads the lines of a ring in turn, forever.
type hostLoop struct {
	ring []mem.Addr
	i    int
}

func (t *hostLoop) Next() (cpu.Op, bool) {
	op := cpu.Op{HasMem: true, Addr: t.ring[t.i%len(t.ring)]}
	t.i++
	return op, true
}

// ring allocates a buffer of n lines spaced stride bytes apart, all placed
// in one cluster, and returns their addresses.
func ring(t *testing.T, s *System, cluster, n int, stride mem.Addr) []mem.Addr {
	t.Helper()
	buf, err := s.space.Alloc("ring", uint64(n)*uint64(stride), mem.PlaceLocal{Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = buf.Base + mem.Addr(i)*stride
	}
	return addrs
}

// launchLoop starts a loopKernel of 8 warps on GPU 0, each warp walking
// the ring from its own offset.
func launchLoop(s *System, kind gpu.OpKind, addrs []mem.Addr) {
	k := &loopKernel{}
	for w := 0; w < 8; w++ {
		k.warps = append(k.warps, &loopTrace{kind: kind, ring: addrs, i: w})
	}
	s.gpus[0].Launch(k, []int{0}, nil)
}

// TestMemoryAccessSteadyStateZeroAllocs pins the pooled memory path: once
// the request free list, the packet pool, the event heap and every queue
// have reached their high-water marks, a memory access allocates nothing
// on any path from an SM or the host down to a DRAM bank and back. Each
// case runs a closed loop of one kind of access that never ends, warms
// it up, then measures allocations over fixed windows of simulated time
// and checks that the window did the kind of work it is named for.
func TestMemoryAccessSteadyStateZeroAllocs(t *testing.T) {
	l2Hits := func(s *System) int64 { return s.gpus[0].L2CacheStats().ReadHits.Value() }
	l2Misses := func(s *System) int64 { return s.gpus[0].L2CacheStats().ReadMisses.Value() }
	hmcAccesses := func(s *System) int64 {
		var n int64
		for _, h := range s.hmcs {
			n += h.Completed()
		}
		return n
	}
	hmcAtomics := func(s *System) int64 {
		var n int64
		for _, h := range s.hmcs {
			n += h.Stats.Atomics.Value()
		}
		return n
	}
	cases := []struct {
		name  string
		arch  Arch
		start func(t *testing.T, s *System)
		// work counts what a window must advance: the accesses of the
		// kind the case is named for.
		work func(s *System) int64
	}{
		{"gpu load L1 hit", UMN, func(t *testing.T, s *System) {
			launchLoop(s, gpu.OpLoad, ring(t, s, 0, 1, gpuSetStride))
		}, func(s *System) int64 { h, _ := s.gpus[0].L1Stats(); return h }},
		{"gpu load L2 hit", UMN, func(t *testing.T, s *System) {
			launchLoop(s, gpu.OpLoad, ring(t, s, 0, 8, gpuL1Stride))
		}, l2Hits},
		{"gpu load miss to the network", UMN, func(t *testing.T, s *System) {
			launchLoop(s, gpu.OpLoad, ring(t, s, 0, 32, gpuSetStride))
		}, l2Misses},
		{"gpu store", UMN, func(t *testing.T, s *System) {
			launchLoop(s, gpu.OpStore, ring(t, s, 0, 8, gpuSetStride))
		}, hmcAccesses},
		{"gpu atomic", UMN, func(t *testing.T, s *System) {
			launchLoop(s, gpu.OpAtomic, ring(t, s, 0, 8, gpuSetStride))
		}, hmcAtomics},
		{"cpu below-L2 miss", UMN, func(t *testing.T, s *System) {
			s.host.Run(&hostLoop{ring: ring(t, s, s.cfg.cpuCluster(), 20, hostSetStride)}, nil)
		}, func(s *System) int64 { return s.host.Stats.MemLatency.Count() }},
		{"pcie peer access", PCIe, func(t *testing.T, s *System) {
			launchLoop(s, gpu.OpLoad, ring(t, s, 1, 32, gpuSetStride))
		}, func(s *System) int64 { return s.fabric.Stats.Transfers.Value() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.arch, "VA")
			cfg.Scale = 0.01
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.start(t, s)
			const warmup, window = 200 * sim.Microsecond, 2 * sim.Microsecond
			s.eng.RunUntil(warmup)
			before := tc.work(s)
			horizon := s.eng.Now()
			allocs := testing.AllocsPerRun(20, func() {
				horizon += window
				s.eng.RunUntil(horizon)
			})
			if tc.work(s) == before {
				t.Fatal("no access of this kind completed while measuring")
			}
			if allocs != 0 {
				t.Fatalf("steady state allocated %.1f times per %v ps window, want 0", allocs, window)
			}
		})
	}
}

// TestRunReleasesEveryRequest runs every architecture with the audit on,
// so the request ledger is checked at each phase end, and checks that a
// finished run has released every request it drew. A request drawn and
// never released then trips the ledger.
func TestRunReleasesEveryRequest(t *testing.T) {
	for _, arch := range Architectures() {
		cfg := tiny(arch, "CG.S")
		cfg.Audit = AuditOn
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Execute(); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if live := s.reqs.Live(); live != 0 {
			t.Fatalf("%v: %d requests still live after the run", arch, live)
		}
		s.reqs.Get()
		if s.Probe().Audit.Check() == 0 {
			t.Fatalf("%v: a leaked request passed the ledger check", arch)
		}
	}
}
