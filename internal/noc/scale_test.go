package noc

import (
	"math/rand"
	"testing"

	"memnet/internal/sim"
)

// bigSpec builds larger systems: 8 clusters (2x4 slices) and 16 clusters
// (the paper's 16GPU-64HMC configuration with 4x4 2D FBFLY slices).
func bigSpec(kind TopoKind, clusters int) TopoSpec {
	return TopoSpec{Kind: kind, Clusters: clusters, LocalPerCluster: 4,
		TermChannels: 8, CPUCluster: -1}
}

func TestEightClusterSliceDistances(t *testing.T) {
	_, b := build(t, bigSpec(TopoSFBFLY, 8))
	// 2x4 slice: same row or column 1 hop, otherwise 2.
	if d := b.Net.DistRouterToRouter(b.RouterID(0, 1), b.RouterID(3, 1)); d != 1 {
		t.Errorf("same-row distance = %d, want 1", d)
	}
	if d := b.Net.DistRouterToRouter(b.RouterID(0, 1), b.RouterID(4, 1)); d != 1 {
		t.Errorf("same-column distance = %d, want 1", d)
	}
	if d := b.Net.DistRouterToRouter(b.RouterID(0, 1), b.RouterID(5, 1)); d != 2 {
		t.Errorf("diagonal distance = %d, want 2", d)
	}
}

func TestSixteenClusterTrafficDrains(t *testing.T) {
	for _, kind := range []TopoKind{TopoSFBFLY, TopoSMESH, TopoSTORUS} {
		eng, b := build(t, bigSpec(kind, 16))
		h := newEcho(b, 9)
		rng := rand.New(rand.NewSource(21))
		const n = 400
		for i := 0; i < n; i++ {
			src := rng.Intn(16)
			dst := rng.Intn(b.Net.NumRouters())
			at := sim.Time(rng.Intn(3000)) * sim.Nanosecond
			eng.At(at, func() { b.Net.Send(b.Net.NewRequest(b.Terms[src], dst, 1+8*rng.Intn(2))) })
		}
		eng.Run()
		if h.responses != n {
			t.Errorf("%v@16: responses = %d, want %d", kind, h.responses, n)
		}
		if !b.Net.Quiescent() {
			t.Errorf("%v@16: not quiescent", kind)
		}
	}
}

func TestOverlaySnakeOnSixteenClusters(t *testing.T) {
	// The overlay chain must snake through the 4x4 slice grid using only
	// existing channels, and express CPU packets end to end.
	eng := sim.NewEngine()
	spec := bigSpec(TopoSFBFLY, 16)
	spec.CPUCluster = 0
	spec.Overlay = true
	b, err := BuildTopology(eng, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	newEcho(b, 1)
	// A CPU request to the far corner of the slice: many chain hops.
	req := b.Net.NewRequest(b.Terms[0], b.RouterID(15, 2), 1)
	req.PassThrough = true
	b.Net.Send(req)
	eng.Run()
	if req.DeliveredAt == 0 {
		t.Fatal("overlay request lost")
	}
	if req.passHops == 0 {
		t.Fatal("request never used pass-through hops")
	}
}

func TestSixteenClusterMaxHopsWithinVCBudget(t *testing.T) {
	// Deadlock freedom relies on hop-indexed VCs; the normal-traffic VC
	// budget (VCsPerClass-1 levels) must cover the worst minimal path of
	// every evaluated topology at 16 clusters.
	budget := DefaultConfig().VCsPerClass - 2 // levels 0..V-2, injection at 0
	for _, kind := range []TopoKind{TopoSFBFLY, TopoSTORUS} {
		_, b := build(t, bigSpec(kind, 16))
		worst := 0
		for r := 0; r < b.Net.NumRouters(); r++ {
			for d := 0; d < b.Net.NumRouters(); d++ {
				if h := b.Net.DistRouterToRouter(r, d); h > worst {
					worst = h
				}
			}
		}
		if worst > budget {
			t.Errorf("%v@16: max minimal hops %d exceeds VC level budget %d", kind, worst, budget)
		}
	}
}

func TestRouterDegreeWithinHMCChannelBudget(t *testing.T) {
	// HMCs have 8 external channels. The evaluated configurations must
	// respect that: terminal attachments plus router channels per HMC.
	cases := []struct {
		kind     TopoKind
		clusters int
	}{
		{TopoSFBFLY, 4}, {TopoSFBFLY, 8}, {TopoSMESH, 16}, {TopoSTORUS, 8},
	}
	for _, tc := range cases {
		_, b := build(t, bigSpec(tc.kind, tc.clusters))
		for r := 0; r < b.Net.NumRouters(); r++ {
			if d := b.Net.Router(r).Degree(); d > 8 {
				t.Errorf("%v@%d: router %d degree %d exceeds the 8-channel HMC budget",
					tc.kind, tc.clusters, r, d)
			}
		}
	}
}
