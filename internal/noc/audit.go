package noc

import "fmt"

// audit is the network's conservation checker, registered as "noc" by
// Instrument. The invariants are stated over event-boundary state
// (between network cycles), where every credit decrement has a matching
// in-flight credit or buffered flit and vice versa:
//
//   - Flit conservation: flits injected = flits retired + flits resident in
//     channel FIFOs, hold queues, and router VC buffers.
//   - Credit conservation: for every sender (router output port or terminal
//     attachment) and VC, available credits + credits returning over the
//     channel + credit-holding flits in flight or buffered downstream equal
//     BufFlitsPerVC exactly. Elastic flits (overlay express, NI-local) hold
//     no credit and are excluded.
//   - VC legality: a buffered or in-flight flit's VC must match its packet's
//     class, and its level must respect the hop-count clamp — only elastic
//     express flits may ride the reserved top VC.
//   - Allocation consistency: an output VC is busy iff exactly one input VC
//     holds it.
//   - Quiescence: once no packet is undelivered, no flit may remain resident
//     anywhere and no terminal may still hold queued flits.
//   - Busy sets: the routers, channels and terminals step visits are
//     exactly those holding work (a buffered flit; a non-empty FIFO, credit
//     queue or hold queue; a packet to send), and the per-port and
//     per-router occupancy counts behind the router set are exact, as is
//     each VC's flit count over its queued runs.
//   - Pair sets: a router's waiting bit is set exactly on the inactive
//     VCs that buffer a flit, its ejecting bit on the VCs allocated to
//     ejection, and an output's claimant bit on the VCs allocated to
//     that output; an output is in the claimed set iff it has one.
func (n *Network) audit(report func(string)) {
	n.auditFlitConservation(report)
	n.auditPacketLedger(report)
	n.auditCredits(report)
	n.auditVCLegality(report)
	n.auditVCAllocation(report)
	n.auditBusySets(report)
	n.auditClaims(report)
}

// residentFlits counts every flit currently buffered inside the network:
// channel FIFOs, express hold queues, and router input-VC buffers (including
// the NI port).
func (n *Network) residentFlits() int64 {
	var k int64
	for _, c := range n.channels {
		k += int64(c.fifo.Len() + c.holdQ.Len())
	}
	for _, r := range n.routers {
		for _, p := range r.allPorts() {
			for vi := range p.vcs {
				k += int64(p.vcs[vi].flits)
			}
		}
	}
	return k
}

func (n *Network) auditFlitConservation(report func(string)) {
	resident := n.residentFlits()
	if n.flitsInjected != n.flitsRetired+resident {
		report(fmt.Sprintf("flit conservation: injected %d != retired %d + resident %d",
			n.flitsInjected, n.flitsRetired, resident))
	}
	if n.active < 0 {
		report(fmt.Sprintf("active packet count negative: %d", n.active))
	}
	if n.active == 0 {
		if resident != 0 {
			report(fmt.Sprintf("quiescent network still holds %d resident flits", resident))
		}
		for _, t := range n.terminals {
			if q := t.QueuedFlits(); q != 0 {
				report(fmt.Sprintf("quiescent network: terminal %d still queues %d flits", t.id, q))
			}
		}
	}
}

// auditPacketLedger checks the weak packet-pool invariants that hold for
// every consumer, releasing or not: releases never exceed issues, and every
// undelivered packet is still live (unreleased). The strict complement —
// a quiescent system has zero live packets — depends on the consumer's
// release discipline, so the system layer that enforces one (internal/core)
// registers it separately.
func (n *Network) auditPacketLedger(report func(string)) {
	if n.pktReleased > n.pktIssued {
		report(fmt.Sprintf("packet ledger: %d released > %d issued", n.pktReleased, n.pktIssued))
	}
	if live := n.LivePackets(); live < int64(n.active) {
		report(fmt.Sprintf("packet ledger: %d live packets < %d active (undelivered packet released)",
			live, n.active))
	}
}

// pendingCredits counts credit returns of vc still traversing channel c.
func pendingCredits(c *Channel, vc int) int {
	k := 0
	for i := 0; i < c.credits.Len(); i++ {
		if c.credits.At(i).vc == vc {
			k++
		}
	}
	return k
}

// creditHoldingInFifo counts non-elastic flits of vc in channel c's FIFO;
// each holds one downstream buffer slot. Hold-queue flits are always
// elastic, so they never appear here.
func creditHoldingInFifo(c *Channel, vc int) int {
	k := 0
	for i := 0; i < c.fifo.Len(); i++ {
		if it := c.fifo.At(i); it.vc == vc && !it.f.passChain {
			k++
		}
	}
	return k
}

// creditHoldingBuffered counts non-elastic flits of vc buffered in input
// port p; each still holds the slot its sender's credit paid for.
func creditHoldingBuffered(p *inPort, vc int) int {
	k := 0
	q := &p.vcs[vc].q
	for i := 0; i < q.Len(); i++ {
		if bf := q.At(i); !bf.elastic {
			k += int(bf.n)
		}
	}
	return k
}

func (n *Network) auditCredits(report func(string)) {
	if n.creditsInFlight < 0 {
		report(fmt.Sprintf("credits-in-flight counter negative: %d", n.creditsInFlight))
	}
	var pending int64
	for _, c := range n.channels {
		pending += int64(c.credits.Len())
	}
	if pending != n.creditsInFlight {
		report(fmt.Sprintf("credit ledger: %d credits on channels, counter says %d",
			pending, n.creditsInFlight))
	}
	buf := n.cfg.BufFlitsPerVC
	for _, r := range n.routers {
		for pi, op := range r.out {
			var dst *inPort
			if op.ch.dstRouter >= 0 {
				dst = n.routers[op.ch.dstRouter].in[op.ch.dstPort]
			}
			for vc, cr := range op.credits {
				held := pendingCredits(op.ch, vc) + creditHoldingInFifo(op.ch, vc)
				if dst != nil {
					held += creditHoldingBuffered(dst, vc)
				}
				if cr+held != buf {
					report(fmt.Sprintf("router %d port %d vc %d: %d credits + %d outstanding != %d",
						r.id, pi, vc, cr, held, buf))
				}
			}
		}
	}
	for _, t := range n.terminals {
		for pi, p := range t.ports {
			ch := p.toRouter
			dst := n.routers[ch.dstRouter].in[ch.dstPort]
			for vc, cr := range p.credits {
				held := pendingCredits(ch, vc) + creditHoldingInFifo(ch, vc) +
					creditHoldingBuffered(dst, vc)
				if cr+held != buf {
					report(fmt.Sprintf("terminal %d port %d vc %d: %d credits + %d outstanding != %d",
						t.id, pi, vc, cr, held, buf))
				}
			}
		}
	}
}

// legalVC checks one flit's VC assignment: right class, and a level within
// the hop-count clamp unless it is an elastic flit on the reserved
// pass-through VC.
func (n *Network) legalVC(vc int, pkt *Packet, elastic bool) bool {
	if vc/n.cfg.VCsPerClass != pkt.Class {
		return false
	}
	level := vc % n.cfg.VCsPerClass
	if level <= n.maxLevel() {
		return true
	}
	return elastic && vc == n.reservedVC(pkt.Class)
}

func (n *Network) auditVCLegality(report func(string)) {
	for _, c := range n.channels {
		for i := 0; i < c.fifo.Len(); i++ {
			it := c.fifo.At(i)
			if !n.legalVC(it.vc, it.f.pkt, it.f.passChain) {
				report(fmt.Sprintf("channel %d carries packet %d (class %d) on illegal vc %d",
					c.index, it.f.pkt.ID, it.f.pkt.Class, it.vc))
			}
		}
		for i := 0; i < c.holdQ.Len(); i++ {
			it := c.holdQ.At(i)
			if it.vc != n.reservedVC(it.f.pkt.Class) {
				report(fmt.Sprintf("channel %d holds express flit of packet %d off the reserved vc (vc %d)",
					c.index, it.f.pkt.ID, it.vc))
			}
		}
	}
	for _, r := range n.routers {
		for _, p := range r.allPorts() {
			for vi := range p.vcs {
				q := &p.vcs[vi].q
				for i := 0; i < q.Len(); i++ {
					bf := q.At(i)
					if !n.legalVC(vi, bf.f.pkt, bf.elastic) {
						report(fmt.Sprintf("router %d buffers packet %d (class %d) on illegal vc %d",
							r.id, bf.f.pkt.ID, bf.f.pkt.Class, vi))
					}
				}
			}
		}
	}
}

func (n *Network) auditVCAllocation(report func(string)) {
	for _, r := range n.routers {
		ports := r.allPorts()
		for oi, op := range r.out {
			for v, busy := range op.vcBusy {
				holders := 0
				for _, p := range ports {
					for vi := range p.vcs {
						vc := &p.vcs[vi]
						if vc.active && vc.outPort == oi && vc.outVC == v {
							holders++
						}
					}
				}
				if busy && holders != 1 {
					report(fmt.Sprintf("router %d port %d vc %d busy with %d holders",
						r.id, oi, v, holders))
				}
				if !busy && holders != 0 {
					report(fmt.Sprintf("router %d port %d vc %d free but held by %d input VCs",
						r.id, oi, v, holders))
				}
			}
		}
	}
}

func (n *Network) auditBusySets(report func(string)) {
	for _, r := range n.routers {
		ports := 0
		for pi, p := range r.allPorts() {
			vcs := 0
			for vi := range p.vcs {
				vc := &p.vcs[vi]
				if !vc.q.Empty() {
					vcs++
				}
				flits := 0
				for i := 0; i < vc.q.Len(); i++ {
					if k := int(vc.q.At(i).n); k > 0 {
						flits += k
					} else {
						report(fmt.Sprintf("router %d input %d vc %d: queue entry %d holds a run of %d flits",
							r.id, pi, vi, i, k))
					}
				}
				if flits != vc.flits {
					report(fmt.Sprintf("router %d input %d vc %d: runs hold %d flits, count says %d",
						r.id, pi, vi, flits, vc.flits))
				}
			}
			if vcs != p.occupied {
				report(fmt.Sprintf("router %d input %d: %d non-empty VCs, occupied count %d",
					r.id, pi, vcs, p.occupied))
			}
			if vcs > 0 {
				ports++
			}
		}
		if ports != r.occupiedPorts {
			report(fmt.Sprintf("router %d: %d occupied ports, count says %d", r.id, ports, r.occupiedPorts))
		}
		if busy := n.busyRouters.has(r.id); busy != (ports > 0) {
			report(fmt.Sprintf("router %d: busy bit %v with %d occupied ports", r.id, busy, ports))
		}
	}
	for _, c := range n.channels {
		if busy := n.busyChannels.has(c.index); busy == c.idle() {
			report(fmt.Sprintf("channel %d: busy bit %v with fifo=%d credits=%d hold=%d",
				c.index, busy, c.fifo.Len(), c.credits.Len(), c.holdQ.Len()))
		}
	}
	for _, t := range n.terminals {
		if busy := n.busyTerminals.has(t.id); busy != t.pending() {
			report(fmt.Sprintf("terminal %d: busy bit %v with %d queued flits", t.id, busy, t.QueuedFlits()))
		}
	}
}

// auditClaims checks the routers' pair sets against the VCs they
// summarize: an allocator that trusted a stale or missing bit would grant
// a pair the full walk skips, or skip one it grants.
func (n *Network) auditClaims(report func(string)) {
	nVCs := n.totalVCs()
	for _, r := range n.routers {
		ports := r.allPorts()
		total := len(ports) * nVCs
		for pi, p := range ports {
			for vi := range p.vcs {
				vc := &p.vcs[vi]
				i := pi*nVCs + vi
				if want := !vc.active && !vc.q.Empty(); r.waiting.has(i) != want {
					report(fmt.Sprintf("router %d input %d vc %d: waiting bit %v, active=%v with %d flits",
						r.id, pi, vi, !want, vc.active, vc.q.Len()))
				}
				if want := vc.active && vc.outPort == ejectPort; r.ejecting.has(i) != want {
					report(fmt.Sprintf("router %d input %d vc %d: ejecting bit %v, active=%v toward port %d",
						r.id, pi, vi, !want, vc.active, vc.outPort))
				}
				if vc.active && vc.outPort >= 0 && !r.out[vc.outPort].claimants.has(i) {
					report(fmt.Sprintf("router %d input %d vc %d: allocated to port %d but not its claimant",
						r.id, pi, vi, vc.outPort))
				}
			}
		}
		for oi, op := range r.out {
			for i := op.claimants.next(0); i >= 0; i = op.claimants.next(i + 1) {
				if i >= total {
					report(fmt.Sprintf("router %d port %d: claimant bit %d beyond its %d pairs", r.id, oi, i, total))
					break
				}
				if vc := &ports[i/nVCs].vcs[i%nVCs]; !vc.active || vc.outPort != oi {
					report(fmt.Sprintf("router %d port %d: claimant input %d vc %d is not allocated to it",
						r.id, oi, i/nVCs, i%nVCs))
				}
			}
			if r.claimed.has(oi) == op.claimants.empty() {
				report(fmt.Sprintf("router %d port %d: claimed bit %v with claimants empty=%v",
					r.id, oi, r.claimed.has(oi), op.claimants.empty()))
			}
		}
	}
}
