package noc

import (
	"fmt"

	"memnet/internal/pool"
)

// ejectPort is the virtual output for packets whose destination is this
// router (delivery into the HMC's vault controllers).
const ejectPort = -2

// bufFlit is one input-VC queue entry: a run of n consecutive flits of
// one packet, f being the first of them. A channel arrival is a run of
// one; the NI enqueues a whole response as one run, whose flits become
// ready on consecutive cycles. The entry stays 40 bytes.
type bufFlit struct {
	f       flit
	elastic bool // arrived via pass-through express or the NI: no credit was reserved
	n       int32
}

// inVC is one input virtual-channel buffer. The queue is a ring: in steady
// state a flit-hop performs one Push and one Pop with no slice growth —
// the seed's append + q[1:] idiom reallocated the backing array every
// BufFlitsPerVC flits. Credited traffic is bounded by BufFlitsPerVC; the
// ring only grows past that for elastic entries (NI responses, overlay
// express), and then stabilizes at the high-water mark.
type inVC struct {
	q       pool.Ring[bufFlit]
	flits   int // flits buffered: the sum of the queued runs' lengths
	active  bool
	outPort int
	outVC   int
}

// push appends a run to the queue.
func (vc *inVC) push(bf bufFlit) {
	vc.q.Push(bf)
	vc.flits += int(bf.n)
}

// pop removes the front flit: the whole front entry if it is a run of
// one, else the run's first flit, the next one of which is ready a cycle
// later.
func (vc *inVC) pop() {
	vc.flits--
	if front := vc.q.Front(); front.n > 1 {
		front.n--
		front.f.idx++
		front.f.readyCycle++
		return
	}
	vc.q.Pop()
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
	rr      int // pair at which the next switch allocation scan starts

	// claimants holds the input (port, VC) pairs allocated to this port.
	claimants busySet
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
	// non-zero.
	occupiedPorts int

	// Sets over (input port, VC) pairs, pair = port*totalVCs + vc in
	// allPorts order, that the allocators scan instead of every pair:
	// waiting holds the inactive VCs that buffer a flit (a head awaiting
	// VC allocation), ejecting the VCs allocated to ejection. claimed
	// holds the output ports whose claimants set is non-empty, so switch
	// allocation visits only those. Finalize sizes all three.
	waiting  busySet
	ejecting busySet
	claimed  busySet

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
	for _, p := range r.ports {
		for vi := range p.vcs {
			n += p.vcs[vi].flits
		}
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
		r.fill(p, vc, port*n.totalVCs()+it.vc)
		// Credit flow control bounds a channel-facing input VC at the
		// configured buffer depth; sizing the ring to that bound on first
		// use (a no-op afterwards) removes the last allocation from the
		// saturated steady state without inflating topology construction.
		vc.q.Grow(n.cfg.BufFlitsPerVC)
	}
	vc.push(bufFlit{f: f, elastic: it.f.passChain, n: 1})
}

// enqueueLocal injects a locally generated packet (an HMC response) through
// the router's network interface: one run of pkt.Size flits, serialized
// at one flit per cycle from the NI's next free cycle.
func (r *Router) enqueueLocal(pkt *Packet) {
	vi := r.net.vcIndex(pkt)
	start := r.net.cycle + 1
	if r.niSerial > start {
		start = r.niSerial
	}
	vc := &r.ni.vcs[vi]
	if vc.q.Empty() {
		r.fill(r.ni, vc, len(r.in)*r.net.totalVCs()+vi)
	}
	vc.push(bufFlit{f: flit{pkt: pkt, readyCycle: start}, elastic: true, n: int32(pkt.Size)})
	r.net.flitsInjected += int64(pkt.Size)
	r.niSerial = start + int64(pkt.Size)
}

// fill records that vc, the VC at pair index pair on port p, went from
// empty to non-empty; if inactive, its head now waits for VC allocation.
func (r *Router) fill(p *inPort, vc *inVC, pair int) {
	if !vc.active {
		r.waiting.add(pair)
	}
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

// release ends vc's allocation once its tail flit has left; the next
// packet's head, if already buffered, now waits for VC allocation.
func (r *Router) release(vc *inVC, pair int) {
	vc.active = false
	if !vc.q.Empty() {
		r.waiting.add(pair)
	}
}

// switchTraversal performs ejection and switch allocation/traversal for one
// cycle: at most one flit leaves each input port, one flit enters each
// output channel, and ejection consumes up to EjectPerCycle flits.
//
// Both arbiters scan pair sets in the order of a walk over every (port,
// VC) pair: ejection ascending, each output round-robin from its rr
// pointer, wrapping once. A pair outside the set is inactive or allocated
// elsewhere, which that walk skips too, so the grants are the same.
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
	nVCs := n.totalVCs()

	// Ejection, until the budget or the VCs allocated to ejection run out;
	// the first ready VC of a port takes the port for the cycle.
	budget := n.cfg.EjectPerCycle
	for i := r.ejecting.next(0); i >= 0 && budget > 0; i = r.ejecting.next(i + 1) {
		pi := i / nVCs
		vi := i - pi*nVCs
		p := ports[pi]
		vc := &p.vcs[vi]
		if used[pi] || vc.q.Empty() {
			continue
		}
		bf := *vc.q.Front()
		if bf.f.readyCycle > n.cycle {
			continue
		}
		vc.pop()
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
			r.ejecting.remove(i)
			r.release(vc, i)
			n.deliverToSink(r.id, bf.f.pkt)
		}
	}

	// Switch allocation per claimed output port: the first pair from rr on
	// whose port is unused this cycle, whose front flit is ready and whose
	// output VC has a downstream credit wins, and rr moves past it.
	total := nPorts * nVCs
	for oi := r.claimed.next(0); oi >= 0; oi = r.claimed.next(oi + 1) {
		op := r.out[oi]
		if !op.ch.canSend(n.cycle) {
			continue
		}
	scan:
		for _, span := range [2][2]int{{op.rr, total}, {0, op.rr}} {
			for i := op.claimants.next(span[0]); i >= 0 && i < span[1]; i = op.claimants.next(i + 1) {
				pi := i / nVCs
				vi := i - pi*nVCs
				p := ports[pi]
				vc := &p.vcs[vi]
				if used[pi] || vc.q.Empty() {
					continue
				}
				bf := *vc.q.Front()
				if bf.f.readyCycle > n.cycle || op.credits[vc.outVC] <= 0 {
					continue
				}
				vc.pop()
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
					op.vcBusy[vc.outVC] = false
					if op.claimants.remove(i); op.claimants.empty() {
						r.claimed.remove(oi)
					}
					r.release(vc, i)
				}
				if op.rr = i + 1; op.rr == total {
					op.rr = 0
				}
				break scan
			}
		}
	}
}

// allocate performs route computation and VC allocation for input VCs whose
// head flit reached the front of its buffer. Priority rotates across
// cycles: the scan of waiting starts at port cycle%ports and wraps, VCs
// ascending within a port.
func (r *Router) allocate(n *Network) {
	if r.waiting.empty() {
		return
	}
	ports := r.allPorts()
	nVCs := n.totalVCs()
	total := len(ports) * nVCs
	start := int(n.cycle) % len(ports) * nVCs
	for _, span := range [2][2]int{{start, total}, {0, start}} {
		for i := r.waiting.next(span[0]); i >= 0 && i < span[1]; i = r.waiting.next(i + 1) {
			pi := i / nVCs
			vc := &ports[pi].vcs[i-pi*nVCs]
			bf := vc.q.Front()
			if !bf.f.head() || bf.f.readyCycle > n.cycle {
				continue
			}
			pkt := bf.f.pkt
			out := r.route(n, pkt)
			if out == ejectPort {
				vc.active = true
				vc.outPort = ejectPort
				r.waiting.remove(i)
				r.ejecting.add(i)
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
			op.claimants.add(i)
			r.claimed.add(out)
			vc.active = true
			vc.outPort = out
			vc.outVC = outVC
			r.waiting.remove(i)
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
