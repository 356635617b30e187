package noc

import (
	"testing"
	"unsafe"

	"memnet/internal/sim"
)

// TestQueueEntrySize pins the input-VC queue entry at 40 bytes: the run
// length fits in the padding after the elastic flag, so queueing a whole
// response as one run costs no more per entry than one flit did.
func TestQueueEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(bufFlit{}); got != 40 {
		t.Fatalf("bufFlit is %d bytes, want 40", got)
	}
}

// TestSaturatedSteadyStateZeroAllocs pins the tentpole property: once the
// ring buffers, the packet free list and the event heap have reached their
// high-water marks, a saturated network advances with zero heap
// allocations per flit-hop.
//
// The traffic is closed-loop: a fixed population of outstanding requests
// per terminal, each response immediately triggering the next request. That
// drives the network at capacity with a bounded packet population — an
// open-loop Bernoulli source past saturation would grow its backlog (and
// thus allocate) forever, measuring queue growth rather than the hot path.
func TestSaturatedSteadyStateZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	spec := TopoSpec{
		Kind:            TopoSFBFLY,
		Clusters:        5,
		LocalPerCluster: 4,
		TermChannels:    8,
		CPUCluster:      -1,
	}
	b, err := BuildTopology(eng, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Net
	n.RouterSink = func(r int, pkt *Packet) {
		src := pkt.SrcTerm
		n.Release(pkt)
		n.Send(n.NewResponse(r, src, 9))
	}
	seed := uint64(12345)
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
	// Seed the closed loop: enough requests per terminal to keep every
	// injection channel busy.
	const inFlightPerTerm = 64
	for i := 0; i < n.NumTerminals(); i++ {
		for k := 0; k < inFlightPerTerm; k++ {
			n.Send(n.NewRequest(b.Terms[i], int(next()%uint64(routers)), 1))
		}
	}
	period := n.Clock().Period()

	// Warm up so every queue reaches its high-water mark and the free list
	// covers the steady-state packet population. Channel-facing VC buffers
	// are pre-sized to their credit bound, but the NI injection rings grow
	// to their observed depth, so the warmup must be long enough that the
	// deterministic traffic trajectory sets no new records while measuring.
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
		t.Fatalf("saturated steady state allocated %.1f times per %d-cycle window (%d flits retired): want 0 allocs/flit-hop",
			allocs, int64(windowCycles), hops)
	}
}
