package noc

import (
	"fmt"

	"memnet/internal/pool"
)

// termPort is one channel-pair attachment between a terminal and a router.
type termPort struct {
	toRouter   *Channel
	fromRouter *Channel
	router     int
	credits    []int
	q          pool.Ring[*Packet] // packets assigned to this attachment
	cur        *Packet
	curFlit    int
}

func (p *termPort) queuedFlits() int {
	n := 0
	for i := 0; i < p.q.Len(); i++ {
		n += (*p.q.At(i)).Size
	}
	if p.cur != nil {
		n += p.cur.Size - p.curFlit
	}
	return n
}

// Terminal is an endpoint node (a GPU or the CPU) attached to the memory
// network through one or more channel pairs, possibly on different routers
// ("distribution" of the node bandwidth, Section V-B).
type Terminal struct {
	id   int
	name string
	net  *Network

	ports []*termPort

	// OnDeliver receives packets destined to this terminal.
	OnDeliver func(*Packet)
}

func newTerminal(n *Network, id int, name string) *Terminal {
	return &Terminal{id: id, name: name, net: n}
}

// ID returns the terminal index.
func (t *Terminal) ID() int { return t.id }

// Name returns the terminal's label.
func (t *Terminal) Name() string { return t.name }

// NumPorts returns the number of channel-pair attachments.
func (t *Terminal) NumPorts() int { return len(t.ports) }

// QueuedFlits returns the number of flits waiting to inject, across ports.
func (t *Terminal) QueuedFlits() int {
	n := 0
	for _, p := range t.ports {
		n += p.queuedFlits()
	}
	return n
}

func (t *Terminal) addPort(toR, fromR *Channel, router int) {
	cr := make([]int, t.net.totalVCs())
	for i := range cr {
		cr[i] = t.net.cfg.BufFlitsPerVC
	}
	t.ports = append(t.ports, &termPort{toRouter: toR, fromRouter: fromR, router: router, credits: cr})
}

// enqueue picks an attachment for pkt (minimal, or UGAL when enabled) and
// queues it for injection.
func (t *Terminal) enqueue(pkt *Packet) {
	if len(t.ports) == 0 {
		panic("noc: terminal has no attachments")
	}
	if t.net.ugal && pkt.Class == ClassRequest && pkt.DstRouter >= 0 {
		t.ugalDecision(pkt)
	}
	target := pkt.DstRouter
	if pkt.Inter >= 0 {
		target = pkt.Inter
	}
	best := t.bestPort(pkt, target)
	t.ports[best].q.Push(pkt)
	t.net.busyTerminals.add(t.id)
}

// pending reports whether any attachment still has a packet to send, so
// the terminal stays in the network's busy set.
func (t *Terminal) pending() bool {
	for _, p := range t.ports {
		if p.cur != nil || !p.q.Empty() {
			return true
		}
	}
	return false
}

// bestPort returns the attachment index with minimal distance to the
// destination, breaking ties by the shortest injection queue then index.
// It panics when the destination is unreachable: routable traffic is the
// system layer's responsibility.
func (t *Terminal) bestPort(pkt *Packet, dstRouter int) int {
	best := t.bestPortOrNone(pkt, dstRouter)
	if best == -1 {
		panic(fmt.Sprintf("noc: terminal %d (%s): destination unreachable (router=%d term=%d)",
			t.id, t.name, dstRouter, pkt.DstTerm))
	}
	return best
}

// bestPortOrNone is bestPort returning -1 for unreachable destinations
// (UGAL probes arbitrary intermediate routers, which may be unreachable in
// partially connected systems).
func (t *Terminal) bestPortOrNone(pkt *Packet, dstRouter int) int {
	best, bestDist, bestQ := -1, int(1<<30), 0
	for i, p := range t.ports {
		if p.toRouter.failed {
			continue // dead attachment pair: cannot inject here
		}
		var d int
		if dstRouter >= 0 {
			d = t.net.routes.distToRouter(p.router, dstRouter)
		} else {
			d = t.net.routes.distToTerm(p.router, pkt.DstTerm)
		}
		if d < 0 {
			continue
		}
		q := p.queuedFlits()
		if best == -1 || d < bestDist || (d == bestDist && q < bestQ) {
			best, bestDist, bestQ = i, d, q
		}
	}
	return best
}

// ugalDecision compares the minimal path against a Valiant path through a
// pseudo-random intermediate router using locally visible queue depths
// (UGAL-L) and sets pkt.Inter when the non-minimal path is less congested.
func (t *Terminal) ugalDecision(pkt *Packet) {
	minPort := t.bestPort(pkt, pkt.DstRouter)
	hMin := t.net.routes.distToRouter(t.ports[minPort].router, pkt.DstRouter) + 1
	qMin := t.ports[minPort].queuedFlits()

	inter := int((pkt.ID*1103515245 + 12345) % uint64(t.net.NumRouters()))
	if inter == pkt.DstRouter {
		return
	}
	valPort := t.bestPortOrNone(pkt, inter)
	if valPort == -1 {
		return // intermediate unreachable: keep the minimal path
	}
	dToInter := t.net.routes.distToRouter(t.ports[valPort].router, inter)
	dOnward := t.net.routes.distToRouter(inter, pkt.DstRouter)
	if dToInter < 0 || dOnward < 0 {
		return
	}
	hVal := dToInter + dOnward + 1
	qVal := t.ports[valPort].queuedFlits()
	if qVal*hVal < qMin*hMin {
		pkt.Inter = inter
	}
}

// inject serializes one flit per attachment per cycle, subject to credits.
func (t *Terminal) inject(n *Network) {
	for _, p := range t.ports {
		if p.cur == nil {
			if p.q.Empty() {
				continue
			}
			p.cur = p.q.Pop()
			p.curFlit = 0
		}
		vc := n.vcIndex(p.cur) // hop count 0: lowest VC of the class
		if p.credits[vc] <= 0 || !p.toRouter.canSend(n.cycle) {
			if rec := p.cur.prof; rec != nil && p.curFlit == 0 && p.credits[vc] <= 0 {
				rec.NoteCredit()
			}
			continue
		}
		f := flit{pkt: p.cur, idx: p.curFlit}
		p.credits[vc]--
		p.toRouter.send(n, f, vc)
		if rec := p.cur.prof; rec != nil && p.curFlit == 0 {
			n.prof.CloseInject(rec, int64(n.eng.Now()))
		}
		n.flitsInjected++
		p.curFlit++
		if p.curFlit == p.cur.Size {
			p.cur = nil
		}
	}
}

// receive consumes an arriving flit; terminals reassemble in place and
// deliver the packet when its tail arrives. Consumption is immediate, so
// the buffer-slot credit goes straight back to the sending router (except
// for express pass-through flits, which never reserved one).
func (t *Terminal) receive(n *Network, c *Channel, it channelItem) {
	if rec := it.f.pkt.prof; rec != nil && it.f.head() {
		n.prof.CloseFlight(rec, int64(n.eng.Now()), it.f.pkt.passHops)
	}
	if !it.f.passChain {
		c.returnCredit(n, n.cycle, it.vc)
	}
	n.flitsRetired++
	if it.f.tail() {
		n.deliverToTerminal(t.id, it.f.pkt)
	}
}
