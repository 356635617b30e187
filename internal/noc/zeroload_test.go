package noc

import (
	"fmt"
	"testing"

	"memnet/internal/sim"
)

// zeroLoadSpecs lists every topology kind BuildTopology builds, at the
// paper's 4 GPUs + CPU (5 clusters of 4 HMCs, 8 channels per node), plus
// the variants that change the router graph: duplicated channels, a CPU
// cluster left out of the slices, the CPU overlay and a 4×4 slice grid.
func zeroLoadSpecs() []TopoSpec {
	base := TopoSpec{Clusters: 5, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1}
	var specs []TopoSpec
	for _, k := range []TopoKind{TopoStar, TopoSFBFLY, TopoDFBFLY, TopoDDFLY, TopoSMESH, TopoSTORUS, TopoRing} {
		s := base
		s.Kind = k
		specs = append(specs, s)
	}
	mesh2x, torus2x := base, base
	mesh2x.Kind, mesh2x.Multiplier = TopoSMESH, 2
	torus2x.Kind, torus2x.Multiplier = TopoSTORUS, 2
	gmn := base
	gmn.Kind, gmn.SlicedClusters, gmn.CPUCluster = TopoSFBFLY, 4, 4
	overlay := base
	overlay.Kind, overlay.Overlay, overlay.CPUCluster = TopoSFBFLY, true, 4
	grid := base
	grid.Kind, grid.Clusters = TopoSFBFLY, 16
	return append(specs, mesh2x, torus2x, gmn, overlay, grid)
}

// TestZeroLoadLatencyExact sends one request from every terminal to every
// router it can reach, each alone on an idle network, and answers each
// with a 9-flit response from the router's NI. Both must take exactly the
// closed form, in cycles:
//
//   - request: reqFlits + hops × (RouterPipeline + 1 + SerDesCycles +
//     WireCycles), where hops counts the channels crossed (the terminal
//     link plus the route table's router hops from the nearest
//     attachment), reqFlits is the terminal's serialization from the next
//     clock edge, and each router on the way, the destination included,
//     holds the head for its pipeline plus the cycle of VC allocation,
//     which follows switch traversal within a cycle;
//   - response: respFlits + 1 + hops × (SerDesCycles + WireCycles) +
//     (hops − 1) × (RouterPipeline + 1), where hops is the route table's
//     router-to-terminal distance: the NI serializes the response from the
//     next cycle with no pipeline, the source router spends one cycle on
//     VC allocation, and every later router costs what it does a request.
//
// Body flits follow their head one per cycle, so the tail's latency is the
// head's plus the serialization. The test pins the NI path: a response
// queued as anything but one flit a cycle from the NI's next free cycle
// arrives at another time.
func TestZeroLoadLatencyExact(t *testing.T) {
	const reqFlits, respFlits = 1, 9
	cfg := DefaultConfig()
	link := int64(cfg.SerDesCycles + cfg.WireCycles)
	router := int64(cfg.RouterPipeline + 1)
	for _, spec := range zeroLoadSpecs() {
		name := fmt.Sprintf("%v/c%d/x%d/sliced%d/overlay=%v", spec.Kind, spec.Clusters,
			spec.Multiplier, spec.SlicedClusters, spec.Overlay)
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			b, err := BuildTopology(eng, cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			n := b.Net
			period := n.Clock().Period()
			var req, resp *Packet
			n.RouterSink = func(r int, pkt *Packet) {
				req = pkt
				resp = n.NewResponse(r, pkt.SrcTerm, respFlits)
				n.Send(resp)
			}
			for _, term := range b.Terms {
				n.Terminal(term).OnDeliver = func(*Packet) {}
			}
			trips := 0
			for _, term := range b.Terms {
				tm := n.Terminal(term)
				for r := 0; r < n.NumRouters(); r++ {
					reqHops := -1
					for _, p := range tm.ports {
						if d := n.DistRouterToRouter(p.router, r); d >= 0 && (reqHops < 0 || d+1 < reqHops) {
							reqHops = d + 1
						}
					}
					if reqHops < 0 {
						continue // no path from this terminal (star, GMN's CPU)
					}
					respHops := int64(n.DistRouterToTerm(r, term))
					req, resp = nil, nil
					n.Send(n.NewRequest(term, r, reqFlits))
					eng.Run()
					if req == nil || resp == nil || resp.DeliveredAt == 0 {
						t.Fatalf("terminal %d -> router %d: round trip did not complete", term, r)
					}
					wantReq := reqFlits + int64(reqHops)*(router+link)
					wantResp := respFlits + 1 + respHops*link + (respHops-1)*router
					gotReq := req.DeliveredAt - req.CreatedAt
					gotResp := resp.DeliveredAt - resp.CreatedAt
					if gotReq != sim.Time(wantReq)*period || gotResp != sim.Time(wantResp)*period {
						t.Fatalf("terminal %d -> router %d (%d and %d hops): request %v ps, response %v ps; want %d and %d cycles of %v ps",
							term, r, reqHops, respHops, gotReq, gotResp, wantReq, wantResp, period)
					}
					n.Release(req)
					n.Release(resp)
					trips++
				}
			}
			if trips == 0 {
				t.Fatal("no reachable terminal-router pair")
			}
		})
	}
}
