// Package noc is a cycle-level interconnection-network simulator in the
// style of BookSim, specialized for HMC memory networks (Section V of the
// paper). Routers model the HMC logic-layer switch: a 4-stage pipeline at
// 1.25 GHz, two message classes (request/response) with 6 virtual channels
// each, 512 B of buffering per VC, credit-based flow control and wormhole
// switching. Channels model 20 GB/s SerDes links (16 B flits, 3.2 ns
// serialization latency).
//
// Endpoints (GPUs and the CPU) are Terminals attached to one or more
// routers through the same channels ("distribution" in the paper's terms).
// Memory destinations are the routers themselves: an HMC is a router plus
// a sink that hands delivered request packets to its vault controllers.
//
// Deadlock avoidance: a packet's virtual channel index within its class
// equals its hop count (clamped). Since the VC level strictly increases
// along every path, any wait-for chain strictly increases VC level and can
// never cycle; request/response classes break protocol deadlock.
package noc

import (
	"fmt"

	"memnet/internal/obs"
	"memnet/internal/pool"
	"memnet/internal/prof"
	"memnet/internal/sim"
	"memnet/internal/stats"
)

// Config holds router and channel microarchitecture parameters
// (Section VI-A of the paper).
type Config struct {
	VCsPerClass    int     // virtual channels per message class (6)
	Classes        int     // message classes (2: request, response)
	BufFlitsPerVC  int     // buffer depth per VC in flits (512 B / 16 B = 32)
	FlitBytes      int     // flit size; one flit per channel per cycle = 20 GB/s at 1.25 GHz
	RouterPipeline int     // router pipeline depth in cycles (4)
	SerDesCycles   int     // SerDes latency per channel traversal (3.2 ns = 4 cycles)
	WireCycles     int     // additional wire latency per channel (1)
	PassThrough    int     // per-hop latency of an overlay pass-through hop (1)
	EjectPerCycle  int     // flits per cycle a router can hand to its vaults
	ClockMHz       float64 // router/channel clock (1250)
	// LinkRetryLimit bounds link-level retransmissions per flit under
	// injected transient errors; past it the flit is forced through and
	// counted as retry-exhausted.
	LinkRetryLimit int
	// NoPacketPool disables the network's packet free list: released
	// packets are left to the garbage collector and every NewPacket /
	// NewRequest / NewResponse heap-allocates. Pooling is on by default
	// and byte-identical to running without it (the free list is
	// deterministic and packets are fully reset); the switch exists so
	// tests can prove that equality.
	NoPacketPool bool
}

// DefaultConfig returns the paper's network parameters.
func DefaultConfig() Config {
	return Config{
		VCsPerClass:    6,
		Classes:        2,
		BufFlitsPerVC:  32,
		FlitBytes:      16,
		RouterPipeline: 4,
		SerDesCycles:   4,
		WireCycles:     1,
		PassThrough:    1,
		EjectPerCycle:  8,
		ClockMHz:       1250,
		LinkRetryLimit: 8,
	}
}

// Message classes.
const (
	ClassRequest  = 0
	ClassResponse = 1
)

// Packet is the unit of transfer visible to clients. A packet is serialized
// into Size flits (head ... tail) inside the network.
type Packet struct {
	ID    uint64
	Class int // ClassRequest or ClassResponse

	// Exactly one of SrcTerm/SrcRouter is >= 0, and likewise for the
	// destination. Router destinations are memory (HMC) accesses;
	// terminal destinations are responses back to a GPU/CPU.
	SrcTerm   int
	SrcRouter int
	DstTerm   int
	DstRouter int

	Size int // flits, including head

	// Inter is an intermediate router for two-phase (Valiant/UGAL)
	// routing; -1 for minimal routing. InterDone is set once the packet
	// reaches the intermediate router.
	Inter     int
	InterDone bool

	// PassThrough marks latency-sensitive packets that may use overlay
	// pass-through paths (CPU packets in the UMN overlay design).
	PassThrough bool

	Payload interface{}

	CreatedAt   sim.Time
	DeliveredAt sim.Time
	Hops        int
	passHops    int // hops taken via pass-through forwarding

	// free marks a packet currently sitting in the network's free list;
	// it guards against double release and use-after-release.
	free bool

	// prof is the packet's open latency-attribution record; nil unless a
	// profiler is attached (see Instrument).
	prof *prof.PktRec
}

// NewPacket returns a blank packet in the reset state (no source, no
// destination, minimal routing, zero timestamps and hop counters), drawn
// from the network's free list unless pooling is disabled. Callers fill in
// class, endpoints and size before Send. Together with Release this is the
// allocation-free path for steady-state traffic.
func (n *Network) NewPacket() *Packet {
	p := n.pktPool.Get()
	*p = Packet{SrcTerm: -1, SrcRouter: -1, DstTerm: -1, DstRouter: -1, Inter: -1}
	return p
}

// NewRequest returns a pooled request packet from terminal t to router
// (HMC) r. Send assigns the ID.
func (n *Network) NewRequest(t, r, sizeFlits int) *Packet {
	p := n.NewPacket()
	p.Class = ClassRequest
	p.SrcTerm = t
	p.DstRouter = r
	p.Size = sizeFlits
	return p
}

// NewResponse returns a pooled response packet from router (HMC) r to
// terminal t. Send assigns the ID.
func (n *Network) NewResponse(r, t, sizeFlits int) *Packet {
	p := n.NewPacket()
	p.Class = ClassResponse
	p.SrcRouter = r
	p.DstTerm = t
	p.Size = sizeFlits
	return p
}

// Release returns a delivered packet to the network. Ownership of a packet
// passes to the consumer (RouterSink or Terminal.OnDeliver) at delivery;
// the consumer calls Release when it is done with the packet — immediately
// in the sink, or later if it legitimately retains the packet (the
// synthetic driver holds each request until its response returns). Release
// always clears the payload reference, pooled or not, so completed
// requests never pin their transactions; with pooling enabled the packet
// is additionally recycled for a later NewPacket. Releasing is optional —
// an unreleased packet is simply garbage collected — but required for the
// allocation-free steady state. Releasing the same packet twice, or a
// packet still in flight, panics: a recycled-while-live packet would
// silently corrupt two transactions at once.
func (n *Network) Release(pkt *Packet) {
	if pkt.free {
		panic(fmt.Sprintf("noc: packet %d released twice", pkt.ID))
	}
	if pkt.DeliveredAt == 0 && pkt.CreatedAt != 0 {
		panic(fmt.Sprintf("noc: packet %d released while undelivered", pkt.ID))
	}
	n.pktReleased++
	*pkt = Packet{free: true}
	if n.cfg.NoPacketPool {
		return
	}
	n.pktPool.Put(pkt)
}

// LivePackets returns the number of packets issued to the network (Send)
// and not yet released — the free-list ledger the audit layer checks
// against the undelivered-packet count.
func (n *Network) LivePackets() int64 { return n.pktIssued - n.pktReleased }

// flit is the unit of flow control.
type flit struct {
	pkt        *Packet
	idx        int // 0 = head, pkt.Size-1 = tail
	readyCycle int64
	passChain  bool // arrived (or injected) on a pass-through chain
}

func (f flit) head() bool { return f.idx == 0 }
func (f flit) tail() bool { return f.idx == f.pkt.Size-1 }

// Stats aggregates network-wide measurements.
type Stats struct {
	// Latency holds one sample per delivered packet: its latency in ps,
	// creation to delivery. Latency.Count() is the packets delivered.
	Latency  stats.Histogram
	Hops     stats.Mean
	PassHops stats.Mean
	Traffic  *stats.Matrix // [terminal][router] flit counts, both directions
}

// Network is a complete interconnect instance.
type Network struct {
	cfg   Config
	eng   *sim.Engine
	clk   sim.Clock
	tick  *sim.Ticker
	cycle int64

	routers   []*Router
	channels  []*Channel
	terminals []*Terminal

	// Busy sets (see step): a router is busy while any input port buffers
	// a flit, a channel while its FIFO, credit queue or hold queue is
	// non-empty, a terminal while any attachment has a packet to send.
	busyRouters   busySet
	busyChannels  busySet
	busyTerminals busySet

	routes *routeTable

	// RouterSink receives request packets delivered to a router (the HMC
	// vault controller input). It must be set before traffic flows to any
	// router destination.
	RouterSink func(r int, pkt *Packet)

	active          int64 // undelivered packets; network sleeps when both counters hit 0
	creditsInFlight int64 // credit returns still traversing channels

	// Flit conservation ledger for the audit layer: every flit that enters
	// the network (terminal injection or NI enqueue) must eventually retire
	// (router ejection or terminal delivery); the difference is exactly the
	// flits resident in channel FIFOs and router buffers.
	flitsInjected int64
	flitsRetired  int64

	// Packet free list and its ledger: every packet issued through Send
	// must eventually be released by its consumer; issued - released is
	// the live-packet count the audit layer checks (a live packet is
	// either undelivered or legitimately held by a consumer).
	pktPool     pool.FreeList[Packet]
	pktIssued   int64
	pktReleased int64

	Stats Stats

	// Select between minimal and UGAL injection routing.
	ugal bool

	// Fault state (see fault.go): baseReach snapshots pristine reachability
	// at Finalize for partition detection; faultTrack carries fault and
	// recovery instants when tracing is attached; linkRetries totals
	// link-level retransmissions across channels.
	baseReach   *reachSnapshot
	faultTrack  obs.Track
	linkRetries int64

	// prof is the attached latency-attribution collector (nil = off).
	prof *prof.NetProf

	nextAutoID uint64
}

// New creates an empty network on engine eng.
func New(eng *sim.Engine, cfg Config) *Network {
	n := &Network{
		cfg: cfg,
		eng: eng,
		clk: sim.ClockMHz(cfg.ClockMHz),
	}
	n.tick = sim.NewTicker(eng, n.clk, n.step)
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Clock returns the network clock.
func (n *Network) Clock() sim.Clock { return n.clk }

// Cycle returns the current network cycle count.
func (n *Network) Cycle() int64 { return n.cycle }

// SetUGAL enables UGAL (adaptive minimal/non-minimal) injection routing.
func (n *Network) SetUGAL(on bool) { n.ugal = on }

// AddRouter appends a router and returns its ID.
func (n *Network) AddRouter() int {
	r := newRouter(n, len(n.routers))
	n.routers = append(n.routers, r)
	return r.id
}

// NumRouters returns the router count.
func (n *Network) NumRouters() int { return len(n.routers) }

// Router returns router id.
func (n *Network) Router(id int) *Router { return n.routers[id] }

// AddTerminal appends a terminal endpoint and returns its ID.
func (n *Network) AddTerminal(name string) int {
	t := newTerminal(n, len(n.terminals), name)
	n.terminals = append(n.terminals, t)
	return t.id
}

// NumTerminals returns the terminal count.
func (n *Network) NumTerminals() int { return len(n.terminals) }

// Terminal returns terminal id.
func (n *Network) Terminal(id int) *Terminal { return n.terminals[id] }

// ChannelOpts adjust a single channel.
type ChannelOpts struct {
	// ExtraLatency adds wire cycles (e.g. longer board traces).
	ExtraLatency int
}

// Connect adds a bidirectional channel pair between routers a and b and
// returns the index of the a->b channel (the b->a channel is the next
// index). Each direction carries one flit per cycle.
func (n *Network) Connect(a, b int, opts ChannelOpts) int {
	lat := n.cfg.SerDesCycles + n.cfg.WireCycles + opts.ExtraLatency
	fwd := n.addChannel(lat)
	rev := n.addChannel(lat)
	fwd.partner, rev.partner = rev.index, fwd.index
	ra, rb := n.routers[a], n.routers[b]
	pa := ra.addPort(fwd, rev, peerRouter, b)
	pb := rb.addPort(rev, fwd, peerRouter, a)
	fwd.srcRouter, fwd.srcPort = a, pa
	fwd.dstRouter, fwd.dstPort = b, pb
	rev.srcRouter, rev.srcPort = b, pb
	rev.dstRouter, rev.dstPort = a, pa
	return fwd.index
}

// Attach connects terminal t to router r with k channel pairs and returns
// the index of the first attachment on the terminal.
func (n *Network) Attach(t, r, k int) int {
	term := n.terminals[t]
	first := len(term.ports)
	for i := 0; i < k; i++ {
		lat := n.cfg.SerDesCycles + n.cfg.WireCycles
		toR := n.addChannel(lat)   // terminal -> router
		fromR := n.addChannel(lat) // router -> terminal
		toR.partner, fromR.partner = fromR.index, toR.index
		rp := n.routers[r].addPort(fromR, toR, peerTerminal, t)
		toR.srcTerm = t
		toR.srcPort = len(term.ports)
		toR.dstRouter, toR.dstPort = r, rp
		fromR.srcRouter, fromR.srcPort = r, rp
		fromR.dstTerm = t
		term.addPort(toR, fromR, r)
	}
	return first
}

func (n *Network) addChannel(latency int) *Channel {
	c := &Channel{
		index:     len(n.channels),
		latency:   int64(latency),
		srcRouter: -1, srcTerm: -1, srcPort: -1,
		dstRouter: -1, dstTerm: -1, dstPort: -1,
		partner: -1,
	}
	n.channels = append(n.channels, c)
	return c
}

// NumChannels returns the total number of unidirectional channels,
// including terminal attachment channels.
func (n *Network) NumChannels() int { return len(n.channels) }

// Channel returns channel idx.
func (n *Network) Channel(idx int) *Channel { return n.channels[idx] }

// NumRouterChannels returns the number of unidirectional router-to-router
// channels (the quantity compared in Fig. 12, where one bidirectional
// channel equals two of these).
func (n *Network) NumRouterChannels() int {
	k := 0
	for _, c := range n.channels {
		if c.srcRouter >= 0 && c.dstRouter >= 0 {
			k++
		}
	}
	return k
}

// Finalize computes routing tables and allocates statistics, the busy
// sets and the routers' pair sets. Must be called after topology
// construction and before any traffic.
func (n *Network) Finalize() error {
	if n.RouterSink == nil {
		n.RouterSink = func(int, *Packet) {}
	}
	rt, err := buildRoutes(n)
	if err != nil {
		return err
	}
	n.routes = rt
	// Snapshot pristine reachability so later link failures can detect
	// partition (see fault.go).
	n.baseReach = n.reachNow(rt)
	n.Stats.Traffic = stats.NewMatrix(len(n.terminals), len(n.routers))
	n.allocBitsets()
	return nil
}

// Send injects a packet. Terminal-sourced packets enter through the
// terminal's attachment queues; router-sourced packets (HMC responses)
// enter through the router's network interface. Send assigns an ID if the
// packet has none and timestamps creation if unset.
func (n *Network) Send(pkt *Packet) {
	if n.routes == nil {
		panic("noc: Send before Finalize")
	}
	if pkt.free {
		panic("noc: Send of a released packet")
	}
	if pkt.ID == 0 {
		n.nextAutoID++
		pkt.ID = n.nextAutoID
	}
	if pkt.CreatedAt == 0 {
		pkt.CreatedAt = n.eng.Now()
	}
	if pkt.Size <= 0 {
		panic("noc: packet with no flits")
	}
	n.pktIssued++
	// Traffic accounting (the Fig. 10 matrix): flits exchanged between a
	// terminal and an HMC, both directions.
	if pkt.SrcTerm >= 0 && pkt.DstRouter >= 0 {
		n.Stats.Traffic.Add(pkt.SrcTerm, pkt.DstRouter, int64(pkt.Size))
	} else if pkt.SrcRouter >= 0 && pkt.DstTerm >= 0 {
		n.Stats.Traffic.Add(pkt.DstTerm, pkt.SrcRouter, int64(pkt.Size))
	}
	if n.prof != nil {
		pkt.prof = n.prof.Start(int64(pkt.CreatedAt), pkt.passHops)
	}
	if pkt.SrcTerm >= 0 {
		n.terminals[pkt.SrcTerm].enqueue(pkt)
	} else if pkt.SrcRouter >= 0 {
		n.routers[pkt.SrcRouter].enqueueLocal(pkt)
	} else {
		panic("noc: packet without source")
	}
	n.active++
	n.tick.Wake()
}

// Quiescent reports whether no flits or packets are in flight.
func (n *Network) Quiescent() bool { return n.active == 0 }

// step advances the network one cycle. Order within a cycle:
//  1. channel arrivals (flits into buffers / terminals, credits back,
//     pass-through express forwarding),
//  2. terminal injection,
//  3. router switch allocation and traversal (also ejection),
//  4. router VC allocation and route computation.
//
// Each phase visits only the members of its busy set, in ascending index
// order. A visit to a component without work changes no state, so this is
// the same cycle as visiting every component: the walk re-reads the live
// set, so a component that gains work mid-phase above the current index
// is still visited this cycle, and one below it waits for the next cycle,
// exactly as in a full scan.
//
// Pipeline latency is enforced with per-flit ready stamps, so a flit can
// never traverse a router in fewer than RouterPipeline cycles (except on
// designated pass-through chains).
func (n *Network) step() bool {
	n.cycle++
	for i := n.busyChannels.next(0); i >= 0; i = n.busyChannels.next(i + 1) {
		c := n.channels[i]
		c.deliver(n)
		if c.idle() {
			n.busyChannels.remove(i)
		}
	}
	for i := n.busyTerminals.next(0); i >= 0; i = n.busyTerminals.next(i + 1) {
		t := n.terminals[i]
		t.inject(n)
		if !t.pending() {
			n.busyTerminals.remove(i)
		}
	}
	for i := n.busyRouters.next(0); i >= 0; i = n.busyRouters.next(i + 1) {
		n.routers[i].switchTraversal(n)
	}
	for i := n.busyRouters.next(0); i >= 0; i = n.busyRouters.next(i + 1) {
		n.routers[i].allocate(n)
	}
	if n.prof != nil {
		n.classifyCycle()
	}
	return n.active > 0 || n.creditsInFlight > 0
}

// deliverToSink finishes a packet whose destination is a router.
func (n *Network) deliverToSink(r int, pkt *Packet) {
	n.finish(pkt)
	n.RouterSink(r, pkt)
}

// deliverToTerminal finishes a packet whose destination is a terminal.
func (n *Network) deliverToTerminal(t int, pkt *Packet) {
	n.finish(pkt)
	term := n.terminals[t]
	if term.OnDeliver != nil {
		term.OnDeliver(pkt)
	}
}

func (n *Network) finish(pkt *Packet) {
	pkt.DeliveredAt = n.eng.Now()
	if pkt.prof != nil {
		n.prof.Retire(pkt.prof, pkt.Class, int64(pkt.CreatedAt), int64(pkt.DeliveredAt))
		pkt.prof = nil
	}
	n.Stats.Latency.Add(int64(pkt.DeliveredAt - pkt.CreatedAt))
	n.Stats.Hops.Add(float64(pkt.Hops))
	n.Stats.PassHops.Add(float64(pkt.passHops))
	n.active-- // one unit per undelivered packet
}

// maxLevel is the highest VC level normal traffic may use; the top VC of
// each class is reserved for overlay pass-through flits so express traffic
// can never interleave with switched packets inside one VC queue.
func (n *Network) maxLevel() int {
	if n.cfg.VCsPerClass >= 2 {
		return n.cfg.VCsPerClass - 2
	}
	return 0
}

// vcIndex returns the VC a packet must use at its current hop count.
func (n *Network) vcIndex(pkt *Packet) int {
	v := pkt.Hops
	if m := n.maxLevel(); v > m {
		v = m
	}
	return pkt.Class*n.cfg.VCsPerClass + v
}

// reservedVC returns the pass-through VC of a class.
func (n *Network) reservedVC(class int) int {
	return class*n.cfg.VCsPerClass + n.cfg.VCsPerClass - 1
}

func (n *Network) totalVCs() int { return n.cfg.Classes * n.cfg.VCsPerClass }

// ChannelBusy returns total busy flit-cycles across router-to-router
// channels, used by the energy model.
func (n *Network) ChannelBusy() (busy, totalCycles int64) {
	for _, c := range n.channels {
		if c.srcRouter >= 0 && c.dstRouter >= 0 {
			busy += c.busyCycles
			totalCycles += n.cycle
		}
	}
	return busy, totalCycles
}

// AllChannelBusy returns busy flit-cycles and capacity over every channel
// including terminal attachments.
func (n *Network) AllChannelBusy() (busy, totalCycles int64) {
	for _, c := range n.channels {
		busy += c.busyCycles
		totalCycles += n.cycle
	}
	return busy, totalCycles
}

func (n *Network) String() string {
	return fmt.Sprintf("noc{routers=%d terminals=%d channels=%d}",
		len(n.routers), len(n.terminals), len(n.channels))
}
