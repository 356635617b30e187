package noc

import (
	"fmt"
	"testing"

	"memnet/internal/sim"
)

// grantHub drives one router by hand: a hub whose ports 0–3 lead to
// routers 1–4, plus its NI, which allPorts puts last (port 4). Every
// packet headed for router 4 leaves through output port 3, so all of them
// contend for one output; packets for the hub itself eject.
type grantHub struct {
	t   *testing.T
	n   *Network
	r   *Router
	ids uint64
}

func newGrantHub(t *testing.T, ejectPerCycle int) *grantHub {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EjectPerCycle = ejectPerCycle
	n := New(sim.NewEngine(), cfg)
	hub := n.AddRouter()
	for i := 1; i <= 4; i++ {
		n.Connect(hub, n.AddRouter(), ChannelOpts{})
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return &grantHub{t: t, n: n, r: n.routers[hub]}
}

// pkt returns a request of size flits for router dst (0 ejects at the hub,
// 4 leaves through output port 3) that has taken hops hops. Its output VC
// at the hub is level hops+1 of class 0.
func (h *grantHub) pkt(dst, hops, size int) *Packet {
	h.ids++
	return &Packet{ID: h.ids, Class: ClassRequest,
		SrcTerm: -1, SrcRouter: -1, DstTerm: -1, DstRouter: dst, Size: size, Inter: -1, Hops: hops}
}

// arrive buffers every flit of pkt in input port port, VC vc, as if they
// all crossed the channel this cycle; they are ready RouterPipeline
// cycles later.
func (h *grantHub) arrive(port, vc int, pkt *Packet) {
	for i := 0; i < pkt.Size; i++ {
		h.r.receive(h.n, port, channelItem{f: flit{pkt: pkt, idx: i}, vc: vc})
	}
}

// cycle runs the hub's share of one network cycle, switch traversal then
// VC allocation as Network.step orders them, and returns the (port, VC)
// pairs that sent a flit, ascending. A grant shows as a drop in the VC's
// flit count: the NI queues a packet as one run, so its queue length
// falls only with the tail.
func (h *grantHub) cycle() string {
	ports := h.r.allPorts()
	before := make([][]int, len(ports))
	for pi, p := range ports {
		for vi := range p.vcs {
			before[pi] = append(before[pi], p.vcs[vi].flits)
		}
	}
	h.n.cycle++
	h.r.switchTraversal(h.n)
	h.r.allocate(h.n)
	s := ""
	for pi, p := range ports {
		for vi := range p.vcs {
			if p.vcs[vi].flits < before[pi][vi] {
				s += fmt.Sprintf("(%d,%d)", pi, vi)
			}
		}
	}
	return s
}

// active lists the (port, VC) pairs holding an allocation, ascending.
func (h *grantHub) active() string {
	s := ""
	for pi, p := range h.r.allPorts() {
		for vi := range p.vcs {
			if p.vcs[vi].active {
				s += fmt.Sprintf("(%d,%d)", pi, vi)
			}
		}
	}
	return s
}

// run advances to cycle last and checks the grants of every cycle from the
// next one on; want maps a cycle to its grants, absent meaning none.
func (h *grantHub) run(last int64, want map[int64]string) {
	h.t.Helper()
	for h.n.cycle < last {
		got := h.cycle()
		if got != want[h.n.cycle] {
			h.t.Errorf("cycle %d: granted %q, want %q", h.n.cycle, got, want[h.n.cycle])
		}
	}
}

// TestRouterGrantOrder pins the separable round-robin arbiters' grant
// order, one (input port, VC) pair at a time. Pairs are ranked port-major
// in allPorts order, NI last: pair = port*12 + vc.
func TestRouterGrantOrder(t *testing.T) {
	t.Run("switch round-robin", func(t *testing.T) {
		// Four 2-flit packets claim output 3, one per output VC. The
		// pointer starts at pair 0 and moves past each grant: a grant
		// exactly at the pointer (cycle 6) and a wrap from the NI back to
		// port 0 (cycle 9).
		h := newGrantHub(t, 8)
		h.arrive(0, 1, h.pkt(4, 0, 2)) // pair 1, output VC 1
		h.arrive(0, 2, h.pkt(4, 1, 2)) // pair 2, output VC 2
		h.arrive(2, 3, h.pkt(4, 3, 2)) // pair 27, output VC 4
		h.run(3, nil)
		h.r.enqueueLocal(h.pkt(4, 2, 2)) // NI VC 2, pair 50, output VC 3
		h.run(4, nil)
		if got, want := h.active(), "(0,1)(0,2)(2,3)(4,2)"; got != want {
			t.Fatalf("allocated %s, want %s", got, want)
		}
		h.run(13, map[int64]string{
			5: "(0,1)", 6: "(0,2)", 7: "(2,3)", 8: "(4,2)",
			9: "(0,1)", 10: "(0,2)", 11: "(2,3)", 12: "(4,2)",
		})
	})

	t.Run("ejection, credits and the eject budget", func(t *testing.T) {
		// Three 1-flit packets eject with a budget of two per cycle, in
		// ascending port order. Port 0 ejects on cycle 5, so its claim on
		// output 3 waits a cycle although the pointer reaches it first; the
		// claim of pair 26 has no downstream credit and is skipped until
		// one returns.
		h := newGrantHub(t, 2)
		h.arrive(0, 0, h.pkt(0, 0, 1)) // ejects
		h.arrive(0, 1, h.pkt(4, 0, 2)) // pair 1, output VC 1
		h.arrive(1, 0, h.pkt(0, 0, 1)) // ejects
		h.arrive(2, 0, h.pkt(0, 0, 1)) // ejects, over budget on cycle 5
		h.arrive(2, 2, h.pkt(4, 1, 1)) // pair 26, output VC 2: no credit
		h.arrive(3, 2, h.pkt(4, 2, 1)) // pair 38, output VC 3
		out := h.r.out[3]
		out.credits[2] = 0
		h.run(4, nil)
		if got, want := h.active(), "(0,0)(0,1)(1,0)(2,0)(2,2)(3,2)"; got != want {
			t.Fatalf("allocated %s, want %s", got, want)
		}
		h.run(7, map[int64]string{
			5: "(0,0)(1,0)(3,2)",
			6: "(0,1)(2,0)",
			7: "(0,1)",
		})
		out.credits[2] = 1
		h.run(8, map[int64]string{8: "(2,2)"})
	})

	t.Run("VC allocation rotates by cycle", func(t *testing.T) {
		// Two pairs of heads contend for one output VC each. Allocation
		// starts at port cycle%5 and wraps: on cycle 5 port 0 ranks
		// first and wins output VC 2; on cycle 6 port 1 ranks first and
		// wins output VC 3, and port 0's uncontended head on pair 3 is
		// reached only by wrapping.
		h := newGrantHub(t, 8)
		h.run(1, nil)
		h.arrive(0, 0, h.pkt(4, 1, 4)) // output VC 2
		h.arrive(1, 0, h.pkt(4, 1, 4)) // output VC 2
		h.run(2, nil)
		h.arrive(0, 1, h.pkt(4, 2, 4)) // output VC 3
		h.arrive(1, 1, h.pkt(4, 2, 4)) // output VC 3
		h.arrive(0, 3, h.pkt(4, 3, 4)) // output VC 4
		h.run(4, nil)
		h.cycle()
		if got, want := h.active(), "(0,0)"; got != want {
			t.Errorf("cycle 5 allocated %s, want %s", got, want)
		}
		h.cycle()
		if got, want := h.active(), "(0,0)(0,3)(1,1)"; got != want {
			t.Errorf("cycle 6 allocated %s, want %s", got, want)
		}
	})
}
