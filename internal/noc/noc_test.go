package noc

import (
	"math/rand"
	"testing"

	"memnet/internal/sim"
)

func build(t *testing.T, spec TopoSpec) (*sim.Engine, *Built) {
	t.Helper()
	eng := sim.NewEngine()
	b, err := BuildTopology(eng, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng, b
}

func spec4x4(kind TopoKind) TopoSpec {
	return TopoSpec{Kind: kind, Clusters: 4, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1}
}

// echoHarness makes every router answer request packets with a response of
// the given flit count and counts deliveries at terminals.
type echoHarness struct {
	net       *Network
	reqsSeen  int
	responses int
	respSize  int
}

func newEcho(b *Built, respSize int) *echoHarness {
	h := &echoHarness{net: b.Net, respSize: respSize}
	b.Net.RouterSink = func(r int, pkt *Packet) {
		h.reqsSeen++
		if pkt.Class == ClassRequest {
			resp := h.net.NewResponse(r, pkt.SrcTerm, h.respSize)
			resp.PassThrough = pkt.PassThrough
			h.net.Send(resp)
		}
	}
	for i := 0; i < b.Net.NumTerminals(); i++ {
		b.Net.Terminal(i).OnDeliver = func(*Packet) { h.responses++ }
	}
	return h
}

func TestFig12ChannelCounts(t *testing.T) {
	// Fig. 12: sFBFLY removes intra-cluster channels, cutting
	// bidirectional channel count by 50% at 4 GPUs and 43% at 8 GPUs
	// versus dFBFLY.
	cases := []struct {
		clusters       int
		dFBFLY, sFBFLY int
	}{
		{4, 48, 24},
		{8, 112, 64},
		{16, 288, 192},
	}
	for _, tc := range cases {
		_, d := build(t, TopoSpec{Kind: TopoDFBFLY, Clusters: tc.clusters, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1})
		_, s := build(t, TopoSpec{Kind: TopoSFBFLY, Clusters: tc.clusters, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1})
		if got := d.BidirRouterChannels(); got != tc.dFBFLY {
			t.Errorf("%d clusters dFBFLY channels = %d, want %d", tc.clusters, got, tc.dFBFLY)
		}
		if got := s.BidirRouterChannels(); got != tc.sFBFLY {
			t.Errorf("%d clusters sFBFLY channels = %d, want %d", tc.clusters, got, tc.sFBFLY)
		}
	}
	// Paper-quoted reductions.
	if red := 1 - 24.0/48.0; red != 0.50 {
		t.Errorf("4-GPU reduction = %v, want 0.50", red)
	}
	if red := 1 - 64.0/112.0; red < 0.42 || red > 0.44 {
		t.Errorf("8-GPU reduction = %v, want ~0.43", red)
	}
}

func TestDDFLYChannelCount(t *testing.T) {
	_, b := build(t, spec4x4(TopoDDFLY))
	// 4 intra-cluster cliques of C(4,2)=6 plus C(4,2)=6 globals = 30.
	if got := b.BidirRouterChannels(); got != 30 {
		t.Fatalf("dDFLY channels = %d, want 30", got)
	}
}

func TestStarHasNoRouterChannels(t *testing.T) {
	_, b := build(t, spec4x4(TopoStar))
	if got := b.BidirRouterChannels(); got != 0 {
		t.Fatalf("star channels = %d, want 0", got)
	}
}

func TestMultiplierDoublesChannels(t *testing.T) {
	s := spec4x4(TopoSMESH)
	_, m1 := build(t, s)
	s.Multiplier = 2
	_, m2 := build(t, s)
	if m2.BidirRouterChannels() != 2*m1.BidirRouterChannels() {
		t.Fatalf("2x mesh channels = %d, want %d", m2.BidirRouterChannels(), 2*m1.BidirRouterChannels())
	}
}

func TestSFBFLYDistances(t *testing.T) {
	_, b := build(t, spec4x4(TopoSFBFLY))
	// Same slice, different cluster: 1 hop (4-cluster slices are cliques).
	if d := b.Net.DistRouterToRouter(b.RouterID(0, 2), b.RouterID(3, 2)); d != 1 {
		t.Errorf("same-slice distance = %d, want 1", d)
	}
	// Same cluster, different local HMC: unreachable through the network
	// (no intra-cluster channels; GPU reaches both directly).
	if d := b.Net.DistRouterToRouter(b.RouterID(0, 0), b.RouterID(0, 1)); d != -1 {
		t.Errorf("intra-cluster distance = %d, want -1 (no channels)", d)
	}
	// Terminal to its own local HMC: direct attachment.
	if d := b.Net.DistRouterToTerm(b.RouterID(1, 3), b.Terms[1]); d != 1 {
		t.Errorf("local terminal distance = %d, want 1", d)
	}
	// Remote HMC to a terminal: one slice hop + attachment.
	if d := b.Net.DistRouterToTerm(b.RouterID(2, 1), b.Terms[0]); d != 2 {
		t.Errorf("remote terminal distance = %d, want 2", d)
	}
}

func TestDFBFLYIntraClusterConnected(t *testing.T) {
	_, b := build(t, spec4x4(TopoDFBFLY))
	if d := b.Net.DistRouterToRouter(b.RouterID(0, 0), b.RouterID(0, 1)); d != 1 {
		t.Errorf("dFBFLY intra-cluster distance = %d, want 1", d)
	}
}

func TestStarDeliveryRoundTrip(t *testing.T) {
	eng, b := build(t, spec4x4(TopoStar))
	h := newEcho(b, 9)
	req := b.Net.NewRequest(b.Terms[0], b.RouterID(0, 1), 1)
	b.Net.Send(req)
	eng.Run()
	if h.reqsSeen != 1 || h.responses != 1 {
		t.Fatalf("reqs=%d resps=%d, want 1/1", h.reqsSeen, h.responses)
	}
	if !b.Net.Quiescent() {
		t.Fatal("network not quiescent after traffic drained")
	}
	if req.Hops != 0 {
		t.Fatalf("local access hops = %d, want 0", req.Hops)
	}
}

func TestSFBFLYRemoteDelivery(t *testing.T) {
	eng, b := build(t, spec4x4(TopoSFBFLY))
	h := newEcho(b, 9)
	req := b.Net.NewRequest(b.Terms[0], b.RouterID(3, 2), 1)
	b.Net.Send(req)
	eng.Run()
	if h.responses != 1 {
		t.Fatalf("responses = %d, want 1", h.responses)
	}
	if req.Hops != 1 {
		t.Fatalf("remote same-slice hops = %d, want 1", req.Hops)
	}
	if req.DeliveredAt <= req.CreatedAt {
		t.Fatal("delivery must take positive time")
	}
}

func TestRingMultiHop(t *testing.T) {
	eng, b := build(t, spec4x4(TopoRing))
	newEcho(b, 1)
	req := b.Net.NewRequest(b.Terms[0], b.RouterID(2, 0), 1)
	b.Net.Send(req)
	eng.Run()
	if req.Hops < 2 {
		t.Fatalf("ring hops = %d, want >= 2", req.Hops)
	}
}

func randomTraffic(t *testing.T, kind TopoKind, packets int, ugal, adaptive bool) (*Built, *echoHarness, sim.Time) {
	t.Helper()
	eng, b := build(t, spec4x4(kind))
	h := newEcho(b, 9)
	b.Net.SetUGAL(ugal)
	b.Net.SetAdaptiveAll(adaptive)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < packets; i++ {
		src := rng.Intn(4)
		var dst int
		if kind == TopoStar {
			dst = b.RouterID(src, rng.Intn(4)) // star can only reach local HMCs
		} else {
			dst = rng.Intn(b.Net.NumRouters())
		}
		size := 1
		if rng.Intn(2) == 0 {
			size = 9 // write request carrying a 128 B line
		}
		at := sim.Time(rng.Intn(2000)) * sim.Nanosecond
		eng.At(at, func() { b.Net.Send(b.Net.NewRequest(b.Terms[src], dst, size)) })
	}
	eng.Run()
	return b, h, eng.Now()
}

func TestRandomTrafficAllDelivered(t *testing.T) {
	kinds := []TopoKind{TopoSFBFLY, TopoDFBFLY, TopoDDFLY, TopoSMESH, TopoSTORUS, TopoRing, TopoStar}
	for _, k := range kinds {
		b, h, _ := randomTraffic(t, k, 300, false, false)
		if h.reqsSeen != 300 || h.responses != 300 {
			t.Errorf("%v: reqs=%d resps=%d, want 300/300", k, h.reqsSeen, h.responses)
		}
		if !b.Net.Quiescent() {
			t.Errorf("%v: not quiescent", k)
		}
		if got := b.Net.Stats.Latency.Count(); got != 600 {
			t.Errorf("%v: delivered = %d, want 600", k, got)
		}
	}
}

func TestUGALAndAdaptiveStillDeliver(t *testing.T) {
	for _, k := range []TopoKind{TopoDFBFLY, TopoDDFLY} {
		_, h, _ := randomTraffic(t, k, 300, true, true)
		if h.responses != 300 {
			t.Errorf("%v with UGAL+adaptive: responses = %d, want 300", k, h.responses)
		}
	}
}

func TestDeterminism(t *testing.T) {
	_, h1, end1 := randomTraffic(t, TopoSFBFLY, 200, false, false)
	_, h2, end2 := randomTraffic(t, TopoSFBFLY, 200, false, false)
	if end1 != end2 {
		t.Fatalf("simulation end times differ: %d vs %d", end1, end2)
	}
	if h1.responses != h2.responses {
		t.Fatal("delivery counts differ across identical runs")
	}
}

func TestHeavyLoadConservation(t *testing.T) {
	// Saturating burst: all four terminals blast the same slice. Checks
	// credit flow control under contention and packet conservation.
	eng, b := build(t, spec4x4(TopoSFBFLY))
	h := newEcho(b, 9)
	for src := 0; src < 4; src++ {
		for i := 0; i < 200; i++ {
			b.Net.Send(b.Net.NewRequest(b.Terms[src], b.RouterID((src+1)%4, 0), 9))
		}
	}
	eng.Run()
	if h.reqsSeen != 800 || h.responses != 800 {
		t.Fatalf("reqs=%d resps=%d, want 800/800", h.reqsSeen, h.responses)
	}
	if !b.Net.Quiescent() {
		t.Fatal("not quiescent after heavy load")
	}
}

func TestTrafficMatrixRecordsRequests(t *testing.T) {
	eng, b := build(t, spec4x4(TopoSFBFLY))
	newEcho(b, 1)
	b.Net.Send(b.Net.NewRequest(b.Terms[2], b.RouterID(1, 1), 9))
	eng.Run()
	// A 9-flit write request plus its 1-flit echo response: both count.
	if got := b.Net.Stats.Traffic.At(b.Terms[2], b.RouterID(1, 1)); got != 10 {
		t.Fatalf("traffic cell = %d, want 10 flits (request + response)", got)
	}
	if b.Net.Stats.Traffic.Total() != 10 {
		t.Fatalf("traffic total = %d, want 10", b.Net.Stats.Traffic.Total())
	}
}

func TestOverlayExpressLowersLatency(t *testing.T) {
	// Same topology and destination, with and without pass-through
	// designation: the PassThrough packet must arrive faster than the
	// normally routed one despite taking chain hops.
	run := func(overlay bool) sim.Time {
		eng := sim.NewEngine()
		spec := spec4x4(TopoSFBFLY)
		spec.CPUCluster = 0
		spec.Overlay = overlay
		b, err := BuildTopology(eng, DefaultConfig(), spec)
		if err != nil {
			t.Fatal(err)
		}
		newEcho(b, 1)
		// CPU (cluster 0) reads from the last cluster on the chain.
		req := b.Net.NewRequest(b.Terms[0], b.RouterID(3, 1), 1)
		req.PassThrough = overlay
		b.Net.Send(req)
		eng.Run()
		return req.DeliveredAt - req.CreatedAt
	}
	plain := run(false)
	express := run(true)
	if express >= plain {
		t.Fatalf("overlay latency %d ps not lower than plain %d ps", express, plain)
	}
}

func TestOverlayUnderLoadStillDelivers(t *testing.T) {
	eng := sim.NewEngine()
	spec := spec4x4(TopoSFBFLY)
	spec.CPUCluster = 0
	spec.Overlay = true
	b, err := BuildTopology(eng, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	h := newEcho(b, 9)
	rng := rand.New(rand.NewSource(3))
	total := 400
	for i := 0; i < total; i++ {
		src := rng.Intn(4)
		req := b.Net.NewRequest(b.Terms[src], rng.Intn(16), 1+8*rng.Intn(2))
		req.PassThrough = src == 0 // CPU packets use the overlay
		at := sim.Time(rng.Intn(1000)) * sim.Nanosecond
		eng.At(at, func() { b.Net.Send(req) })
	}
	eng.Run()
	if h.responses != total {
		t.Fatalf("responses = %d, want %d", h.responses, total)
	}
}

func TestMeanMinHopsOrdering(t *testing.T) {
	// Over 16-cluster slices, FBFLY must beat mesh on average hops.
	_, fb := build(t, TopoSpec{Kind: TopoSFBFLY, Clusters: 16, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1})
	_, ms := build(t, TopoSpec{Kind: TopoSMESH, Clusters: 16, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1})
	if fb.Net.MeanMinHops() >= ms.Net.MeanMinHops() {
		t.Fatalf("sFBFLY mean hops %.2f not below sMESH %.2f",
			fb.Net.MeanMinHops(), ms.Net.MeanMinHops())
	}
}

func TestSTORUSBeatsOrMatchesSMESHHops(t *testing.T) {
	_, to := build(t, TopoSpec{Kind: TopoSTORUS, Clusters: 16, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1})
	_, ms := build(t, TopoSpec{Kind: TopoSMESH, Clusters: 16, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1})
	if to.Net.MeanMinHops() > ms.Net.MeanMinHops() {
		t.Fatalf("sTORUS mean hops %.2f above sMESH %.2f", to.Net.MeanMinHops(), ms.Net.MeanMinHops())
	}
}

func TestChannelEnergyAccounting(t *testing.T) {
	eng, b := build(t, spec4x4(TopoSFBFLY))
	newEcho(b, 9)
	b.Net.Send(b.Net.NewRequest(b.Terms[0], b.RouterID(1, 0), 9))
	eng.Run()
	busy, total := b.Net.ChannelBusy()
	if busy <= 0 {
		t.Fatal("router channels recorded no busy cycles")
	}
	if busy > total {
		t.Fatalf("busy %d exceeds capacity %d", busy, total)
	}
	allBusy, _ := b.Net.AllChannelBusy()
	if allBusy <= busy {
		t.Fatal("terminal channels should add busy cycles")
	}
}

func TestLatencyAccountingSane(t *testing.T) {
	b, _, _ := randomTraffic(t, TopoSFBFLY, 100, false, false)
	st := &b.Net.Stats
	if st.Latency.Count() != 200 { // 100 requests + 100 responses
		t.Fatalf("latency samples = %d, want 200", st.Latency.Count())
	}
	if st.Latency.Min() <= 0 {
		t.Fatal("minimum latency must be positive")
	}
	if st.Hops.Max() > 4 {
		t.Fatalf("max hops = %v, too high for 4-cluster sFBFLY", st.Hops.Max())
	}
}

func TestBadSpecsRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := BuildTopology(eng, DefaultConfig(), TopoSpec{Kind: TopoSFBFLY}); err == nil {
		t.Fatal("zero spec accepted")
	}
	bad := spec4x4(TopoSFBFLY)
	bad.TermChannels = 7
	if _, err := BuildTopology(eng, DefaultConfig(), bad); err == nil {
		t.Fatal("indivisible terminal channels accepted")
	}
	ov := spec4x4(TopoSFBFLY)
	ov.Overlay = true
	ov.CPUCluster = -1
	if _, err := BuildTopology(eng, DefaultConfig(), ov); err == nil {
		t.Fatal("overlay without CPU cluster accepted")
	}
}

func TestParseTopo(t *testing.T) {
	k, err := ParseTopo("sFBFLY")
	if err != nil || k != TopoSFBFLY {
		t.Fatalf("ParseTopo(sFBFLY) = %v, %v", k, err)
	}
	if _, err := ParseTopo("nope"); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if TopoSMESH.String() != "sMESH" {
		t.Fatalf("String() = %q", TopoSMESH.String())
	}
}
