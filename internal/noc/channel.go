package noc

import "memnet/internal/pool"

type peerKind int

const (
	peerRouter peerKind = iota
	peerTerminal
)

type channelItem struct {
	f      flit
	vc     int
	arrive int64
	// attempts counts link-level retransmissions of this flit (CRC/NAK
	// replays under injected transient errors).
	attempts int
}

type creditItem struct {
	vc     int
	arrive int64
}

// Channel is one unidirectional link carrying one flit per cycle with a
// fixed latency (SerDes + wire). Credits for consumed buffer slots travel
// back over the channel with the same latency.
type Channel struct {
	index   int
	latency int64

	srcRouter, srcPort, srcTerm int
	dstRouter, dstPort, dstTerm int

	fifo    pool.Ring[channelItem]
	credits pool.Ring[creditItem]

	lastSendCycle int64
	busyCycles    int64

	// passNext designates this channel as part of an overlay pass-through
	// chain (Section V-C): flits of PassThrough packets arriving here are
	// forwarded onto passNext with minimal latency, bypassing the router
	// pipeline, when their destination lies downstream on the chain.
	passNext *Channel
	// passRouters is the set of routers reachable downstream on the
	// chain; passTerm is the terminal the chain ends on (-1 if none).
	passRouters map[int]bool
	passTerm    int
	// passState remembers the head flit's express decision so all flits
	// of a packet stay together.
	passState map[uint64]bool
	// expressing counts packets currently mid-express on this channel
	// (head expressed, tail not yet seen). Only one packet may express at
	// a time: express flits all share the reserved VC downstream, so
	// concurrent express packets would interleave inside one VC queue.
	expressing int
	// holdQ holds express flits that found the next channel occupied.
	holdQ pool.Ring[channelItem]

	// Fault state. partner is the index of the opposite direction of this
	// channel's bidirectional pair (-1 before wiring); link failures always
	// take out both directions. failed channels are excluded from route
	// computation — traffic already committed to them drains normally.
	partner int
	failed  bool
	// pendingCorrupt is the number of upcoming flit arrivals the link's CRC
	// will reject (injected transient errors); each rejected flit is NAKed
	// and replayed by the sender after a full round trip.
	pendingCorrupt int
	// retries counts replayed flits; retryExhausted counts flits forced
	// through after exhausting the per-flit retry budget.
	retries        int64
	retryExhausted int64
}

// Latency returns the channel's traversal latency in cycles.
func (c *Channel) Latency() int64 { return c.latency }

// BusyCycles returns the number of cycles a flit was sent on this channel.
func (c *Channel) BusyCycles() int64 { return c.busyCycles }

// Failed reports whether the channel has been permanently failed.
func (c *Channel) Failed() bool { return c.failed }

// Retries returns the number of link-level flit retransmissions performed.
func (c *Channel) Retries() int64 { return c.retries }

// RetryExhausted returns the number of flits forced through after
// exhausting the retry budget.
func (c *Channel) RetryExhausted() int64 { return c.retryExhausted }

func (c *Channel) canSend(cycle int64) bool { return c.lastSendCycle < cycle }

// idle reports whether the channel holds no flit, credit or held express
// flit, so it can leave the network's busy set.
func (c *Channel) idle() bool { return c.fifo.Empty() && c.credits.Empty() && c.holdQ.Empty() }

func (c *Channel) send(n *Network, f flit, vc int) {
	c.lastSendCycle = n.cycle
	c.busyCycles++
	c.fifo.Push(channelItem{f: f, vc: vc, arrive: n.cycle + c.latency})
	n.busyChannels.add(c.index)
}

// sendPass sends a flit with pass-through latency (bypassing SerDes).
func (c *Channel) sendPass(n *Network, f flit, vc int) {
	c.lastSendCycle = n.cycle
	c.busyCycles++
	f.passChain = true
	c.fifo.Push(channelItem{f: f, vc: vc, arrive: n.cycle + int64(n.cfg.PassThrough+n.cfg.WireCycles)})
	n.busyChannels.add(c.index)
}

func (c *Channel) returnCredit(n *Network, cycle int64, vc int) {
	n.creditsInFlight++
	c.credits.Push(creditItem{vc: vc, arrive: cycle + c.latency})
	n.busyChannels.add(c.index)
}

// deliver moves arrived flits into the downstream buffer (or terminal) and
// arrived credits back to the upstream sender. It also performs express
// pass-through forwarding for overlay chains.
func (c *Channel) deliver(n *Network) {
	// Drain held express flits first: they have absolute priority on the
	// channel and must stay in packet order.
	for !c.holdQ.Empty() && c.canSend(n.cycle) {
		it := c.holdQ.Pop()
		c.sendPass(n, it.f, it.vc)
	}
	for !c.credits.Empty() && c.credits.Front().arrive <= n.cycle {
		cr := c.credits.Pop()
		n.creditsInFlight--
		if c.srcRouter >= 0 {
			n.routers[c.srcRouter].out[c.srcPort].credits[cr.vc]++
		} else if c.srcTerm >= 0 {
			n.terminals[c.srcTerm].ports[c.srcPort].credits[cr.vc]++
		}
	}
	for !c.fifo.Empty() && c.fifo.Front().arrive <= n.cycle {
		if c.pendingCorrupt > 0 {
			// Injected transient error: the link CRC rejects the arriving
			// flit. Within the retry budget it is NAKed and replayed — the
			// flit stays at the FIFO head with its arrival re-stamped one
			// round trip out, so later flits wait behind it and wormhole
			// order is preserved. Past the budget the link controller forces
			// the flit through (detected-but-uncorrected) and the error
			// burst ends.
			c.pendingCorrupt--
			head := c.fifo.Front()
			if head.attempts < n.cfg.LinkRetryLimit {
				head.attempts++
				head.arrive = n.cycle + 2*c.latency
				c.retries++
				c.busyCycles++
				n.noteRetransmit(c, head.f.pkt, head.attempts)
				break
			}
			c.retryExhausted++
			c.pendingCorrupt = 0
			n.noteRetryExhausted(c, head.f.pkt)
		}
		it := c.fifo.Pop()
		if c.dstTerm >= 0 {
			n.terminals[c.dstTerm].receive(n, c, it)
			continue
		}
		if c.tryExpress(n, it) {
			continue
		}
		n.routers[c.dstRouter].receive(n, c.dstPort, it)
	}
}

// tryExpress forwards a pass-through flit along the overlay chain if the
// packet is marked, the chain continues, and continuing moves the flit
// closer to its destination. Express flits bypass buffering at this router
// entirely; their buffer-slot credit is returned immediately.
func (c *Channel) tryExpress(n *Network, it channelItem) bool {
	pkt := it.f.pkt
	if !pkt.PassThrough || c.passNext == nil {
		return false
	}
	if it.f.head() {
		express := c.expressBeneficial(n, pkt) && c.expressing == 0
		if express {
			c.expressing++
		}
		if c.passState == nil {
			c.passState = make(map[uint64]bool)
		}
		c.passState[pkt.ID] = express
	}
	express := c.passState[pkt.ID]
	if it.f.tail() {
		delete(c.passState, pkt.ID)
		if express {
			c.expressing--
		}
	}
	if !express {
		return false
	}
	// The reserved buffer slot downstream is not used; credit goes back.
	if !it.f.passChain {
		c.returnCredit(n, n.cycle, it.vc)
	}
	if it.f.head() {
		pkt.Hops++
		pkt.passHops++
	}
	next := c.passNext
	f := it.f
	// Express flits travel on the reserved top VC of their class so they
	// never interleave with switched packets inside a downstream VC queue.
	// A flit may only bypass the hold queue when it is empty; otherwise it
	// would overtake earlier held flits and reorder the packet stream.
	vc := n.reservedVC(pkt.Class)
	if next.holdQ.Empty() && next.canSend(n.cycle) {
		next.sendPass(n, f, vc)
	} else {
		f.passChain = true
		next.holdQ.Push(channelItem{f: f, vc: vc})
		n.busyChannels.add(next.index)
	}
	return true
}

func (c *Channel) expressBeneficial(_ *Network, pkt *Packet) bool {
	if pkt.DstRouter >= 0 {
		return pkt.DstRouter != c.dstRouter && c.passRouters[pkt.DstRouter]
	}
	return pkt.DstTerm == c.passTerm
}
