package noc

import (
	"fmt"

	"memnet/internal/pool"
)

// ejectPort is the virtual output for packets whose destination is this
// router (delivery into the HMC's vault controllers).
const ejectPort = -2

type bufFlit struct {
	f       flit
	elastic bool // arrived via pass-through express: no credit was reserved
}

// inVC is one input virtual-channel buffer. The queue is a ring: in steady
// state a flit-hop performs one Push and one Pop with no slice growth —
// the seed's append + q[1:] idiom reallocated the backing array every
// BufFlitsPerVC flits. Credited traffic is bounded by BufFlitsPerVC; the
// ring only grows past that for elastic flits (NI injection, overlay
// express), and then stabilizes at the high-water mark.
type inVC struct {
	q       pool.Ring[bufFlit]
	active  bool
	outPort int
	outVC   int
}

type inPort struct {
	ch  *Channel // incoming channel; nil for the local (NI) port
	vcs []inVC

	// occupied counts VCs with a non-empty buffer, letting the per-cycle
	// allocation and traversal loops skip idle ports without scanning
	// every VC.
	occupied int
}

type outPort struct {
	ch      *Channel
	peer    peerKind
	peerID  int
	credits []int
	vcBusy  []bool
	rr      int

	// claims counts input VCs allocated to this port (active, outPort
	// here); switch allocation skips a port nobody has claimed.
	claims int
}

// Router models the HMC logic-layer switch: a virtual-channel router with a
// fixed pipeline depth, separable allocation, and credit-based wormhole
// flow control. A router is also a memory endpoint: packets destined to it
// are ejected into the RouterSink (the vault controllers), and responses
// enter through its network interface (NI) input port.
type Router struct {
	id  int
	net *Network

	in  []*inPort
	out []*outPort
	ni  *inPort

	// ports caches in + ni (NI last); switchTraversal and allocate walk it
	// every cycle, so it is rebuilt once per addPort instead of being
	// reassembled (one allocation) per call.
	ports []*inPort

	used []bool // per (input port + NI) single-read-per-cycle gate

	// occupiedPorts counts input ports (NI included) with occupied > 0;
	// the router is in the network's busy set exactly while it is
	// non-zero. ejectClaims counts input VCs allocated to ejection.
	occupiedPorts int
	ejectClaims   int

	niSerial int64 // next free NI injection cycle (1 flit/cycle)

	// adaptive selects the least-congested among minimal output ports
	// instead of a deterministic hash (intra-cluster adaptive routing of
	// Section VI-B1).
	adaptive bool
}

func newRouter(n *Network, id int) *Router {
	r := &Router{id: id, net: n}
	r.ni = &inPort{vcs: make([]inVC, n.totalVCs())}
	r.ports = []*inPort{r.ni}
	return r
}

// ID returns the router's index.
func (r *Router) ID() int { return r.id }

// Degree returns the number of channel ports (router- and terminal-facing).
func (r *Router) Degree() int { return len(r.out) }

// BufferedFlits returns the flits resident in this router's input VC
// buffers, including the NI injection port.
func (r *Router) BufferedFlits() int {
	n := 0
	for _, p := range r.in {
		for vi := range p.vcs {
			n += p.vcs[vi].q.Len()
		}
	}
	for vi := range r.ni.vcs {
		n += r.ni.vcs[vi].q.Len()
	}
	return n
}

// addPort creates a paired input/output port. out carries flits away from
// the router, in brings flits to it.
func (r *Router) addPort(out, in *Channel, peer peerKind, peerID int) int {
	idx := len(r.out)
	cr := make([]int, r.net.totalVCs())
	for i := range cr {
		cr[i] = r.net.cfg.BufFlitsPerVC
	}
	r.out = append(r.out, &outPort{ch: out, peer: peer, peerID: peerID,
		credits: cr, vcBusy: make([]bool, r.net.totalVCs())})
	r.in = append(r.in, &inPort{ch: in, vcs: make([]inVC, r.net.totalVCs())})
	r.ports = append(append(r.ports[:0:0], r.in...), r.ni)
	return idx
}

// receive buffers an arriving flit into the input VC it travelled on.
func (r *Router) receive(n *Network, port int, it channelItem) {
	f := it.f
	if f.pkt.prof != nil && f.head() {
		n.prof.CloseFlight(f.pkt.prof, int64(n.eng.Now()), f.pkt.passHops)
	}
	f.readyCycle = n.cycle + int64(n.cfg.RouterPipeline)
	p := r.in[port]
	vc := &p.vcs[it.vc]
	if vc.q.Empty() {
		r.fill(p)
		// Credit flow control bounds a channel-facing input VC at the
		// configured buffer depth; sizing the ring to that bound on first
		// use (a no-op afterwards) removes the last allocation from the
		// saturated steady state without inflating topology construction.
		vc.q.Grow(n.cfg.BufFlitsPerVC)
	}
	vc.q.Push(bufFlit{f: f, elastic: it.f.passChain})
}

// enqueueLocal injects a locally generated packet (an HMC response) through
// the router's network interface.
func (r *Router) enqueueLocal(pkt *Packet) {
	vc := r.net.vcIndex(pkt)
	start := r.net.cycle + 1
	if r.niSerial > start {
		start = r.niSerial
	}
	if r.ni.vcs[vc].q.Empty() {
		r.fill(r.ni)
	}
	for i := 0; i < pkt.Size; i++ {
		f := flit{pkt: pkt, idx: i, readyCycle: start + int64(i)}
		r.ni.vcs[vc].q.Push(bufFlit{f: f, elastic: true})
	}
	r.net.flitsInjected += int64(pkt.Size)
	r.niSerial = start + int64(pkt.Size)
}

// fill records that one of p's VCs went from empty to non-empty.
func (r *Router) fill(p *inPort) {
	if p.occupied++; p.occupied == 1 {
		if r.occupiedPorts++; r.occupiedPorts == 1 {
			r.net.busyRouters.add(r.id)
		}
	}
}

// drain records that one of p's VCs emptied.
func (r *Router) drain(p *inPort) {
	if p.occupied--; p.occupied == 0 {
		if r.occupiedPorts--; r.occupiedPorts == 0 {
			r.net.busyRouters.remove(r.id)
		}
	}
}

// allPorts returns the input ports with the NI port last.
func (r *Router) allPorts() []*inPort { return r.ports }

// switchTraversal performs ejection and switch allocation/traversal for one
// cycle: at most one flit leaves each input port, one flit enters each
// output channel, and ejection consumes up to EjectPerCycle flits.
func (r *Router) switchTraversal(n *Network) {
	nPorts := len(r.in) + 1
	if cap(r.used) < nPorts {
		r.used = make([]bool, nPorts)
	}
	used := r.used[:nPorts]
	for i := range used {
		used[i] = false
	}
	ports := r.allPorts()

	// Ejection, until the budget or the VCs allocated to ejection run out.
	budget := n.cfg.EjectPerCycle
	for pi, p := range ports {
		if budget == 0 || r.ejectClaims == 0 {
			break
		}
		if used[pi] || p.occupied == 0 {
			continue
		}
		for vi := range p.vcs {
			vc := &p.vcs[vi]
			if !vc.active || vc.outPort != ejectPort || vc.q.Empty() {
				continue
			}
			bf := *vc.q.Front()
			if bf.f.readyCycle > n.cycle {
				continue
			}
			vc.q.Pop()
			if vc.q.Empty() {
				r.drain(p)
			}
			if bf.f.pkt.prof != nil && bf.f.head() {
				n.prof.CloseRouter(bf.f.pkt.prof, int64(n.eng.Now()))
			}
			used[pi] = true
			budget--
			n.flitsRetired++
			if !bf.elastic && p.ch != nil {
				p.ch.returnCredit(n, n.cycle, vi)
			}
			if bf.f.tail() {
				vc.active = false
				r.ejectClaims--
				n.deliverToSink(r.id, bf.f.pkt)
			}
			break // one flit per input port per cycle
		}
	}

	// Switch allocation per output port, round-robin over (port, vc). The
	// scan visits (port, vc) pairs in the same order as the naive
	//
	//	for k := 0..total-1 { idx := (rr+k) %% total; pi, vi := idx / nVCs, idx %% nVCs }
	//
	// loop but walks the pair incrementally (no div/mod per step) and skips
	// a port's remaining VCs wholesale once the port is used this cycle or
	// holds no buffered flits — the grant sequence is bit-identical. An
	// output port no input VC has claimed cannot grant, and rr moves only
	// on a grant, so skipping it is exact too.
	nVCs := n.totalVCs()
	total := nPorts * nVCs
	for oi, op := range r.out {
		if op.claims == 0 || !op.ch.canSend(n.cycle) {
			continue
		}
		rr := op.rr % total
		pi := rr / nVCs
		vi := rr - pi*nVCs
		for k := 0; k < total; {
			p := ports[pi]
			if used[pi] || p.occupied == 0 {
				k += nVCs - vi
				vi = 0
				if pi++; pi == nPorts {
					pi = 0
				}
				continue
			}
			vc := &p.vcs[vi]
			if !vc.active || vc.outPort != oi || vc.q.Empty() {
				k++
				if vi++; vi == nVCs {
					vi = 0
					if pi++; pi == nPorts {
						pi = 0
					}
				}
				continue
			}
			bf := *vc.q.Front()
			if bf.f.readyCycle > n.cycle || op.credits[vc.outVC] <= 0 {
				k++
				if vi++; vi == nVCs {
					vi = 0
					if pi++; pi == nPorts {
						pi = 0
					}
				}
				continue
			}
			vc.q.Pop()
			if vc.q.Empty() {
				r.drain(p)
			}
			used[pi] = true
			if !bf.elastic && p.ch != nil {
				p.ch.returnCredit(n, n.cycle, vi)
			}
			if bf.f.head() && op.peer == peerRouter {
				bf.f.pkt.Hops++
			}
			if bf.f.pkt.prof != nil && bf.f.head() {
				n.prof.CloseRouter(bf.f.pkt.prof, int64(n.eng.Now()))
			}
			op.credits[vc.outVC]--
			f := bf.f
			f.passChain = false
			op.ch.send(n, f, vc.outVC)
			if bf.f.tail() {
				vc.active = false
				op.vcBusy[vc.outVC] = false
				op.claims--
			}
			op.rr = pi*nVCs + vi + 1
			if op.rr == total {
				op.rr = 0
			}
			break
		}
	}
}

// allocate performs route computation and VC allocation for input VCs whose
// head flit reached the front of its buffer.
func (r *Router) allocate(n *Network) {
	ports := r.allPorts()
	offset := int(n.cycle) % len(ports) // rotate priority across cycles
	for i := range ports {
		p := ports[(i+offset)%len(ports)]
		if p.occupied == 0 {
			continue
		}
		for vi := range p.vcs {
			vc := &p.vcs[vi]
			if vc.active || vc.q.Empty() {
				continue
			}
			bf := vc.q.Front()
			if !bf.f.head() || bf.f.readyCycle > n.cycle {
				continue
			}
			pkt := bf.f.pkt
			out := r.route(n, pkt)
			if out == ejectPort {
				vc.active = true
				vc.outPort = ejectPort
				r.ejectClaims++
				continue
			}
			level := pkt.Hops + 1
			if m := n.maxLevel(); level > m {
				level = m
			}
			outVC := pkt.Class*n.cfg.VCsPerClass + level
			op := r.out[out]
			if op.vcBusy[outVC] {
				continue // output VC held by another packet; retry next cycle
			}
			op.vcBusy[outVC] = true
			op.claims++
			vc.active = true
			vc.outPort = out
			vc.outVC = outVC
		}
	}
}

// route computes the output port for pkt at this router.
func (r *Router) route(n *Network, pkt *Packet) int {
	if pkt.Inter >= 0 && !pkt.InterDone {
		if pkt.Inter == r.id {
			pkt.InterDone = true
		} else {
			return r.pick(n, pkt, n.routes.portsToRouter(r.id, pkt.Inter))
		}
	}
	if pkt.DstRouter >= 0 {
		if pkt.DstRouter == r.id {
			return ejectPort
		}
		return r.pick(n, pkt, n.routes.portsToRouter(r.id, pkt.DstRouter))
	}
	return r.pick(n, pkt, n.routes.portsToTerm(r.id, pkt.DstTerm))
}

func (r *Router) pick(n *Network, pkt *Packet, ports []int) int {
	if len(ports) == 0 {
		panic(fmt.Sprintf("noc: router %d: no route for packet %d (dst router=%d term=%d)",
			r.id, pkt.ID, pkt.DstRouter, pkt.DstTerm))
	}
	if len(ports) == 1 {
		return ports[0]
	}
	if r.adaptive {
		// Choose the output with the most downstream credit at the VC
		// level the packet will use.
		level := pkt.Hops + 1
		if m := n.maxLevel(); level > m {
			level = m
		}
		outVC := pkt.Class*n.cfg.VCsPerClass + level
		best, bestCr := ports[0], -1
		for _, p := range ports {
			if cr := r.out[p].credits[outVC]; cr > bestCr {
				best, bestCr = p, cr
			}
		}
		return best
	}
	h := pkt.ID*2654435761 + uint64(r.id)*40503
	return ports[h%uint64(len(ports))]
}
