// Package prof is the simulated-time attribution layer: it decomposes
// every retired packet's end-to-end latency into named pipeline stages,
// accumulates per-router/per-VC congestion heat, and attributes
// compute-side simulated time per kernel and GPU.
//
// The house observability contract applies: the profiler is strictly
// passive (it schedules no events and perturbs no simulated state, so
// results are byte-identical with it attached or not), the disabled path
// costs one nil check per hook (0 allocs/flit-hop, pinned by benchmark),
// and the decomposition is exact — the stage sum equals the measured
// end-to-end latency for every packet, enforced by an audit checker.
//
// Exactness is by construction, not by bookkeeping discipline: a packet
// record carries one open interval boundary (`last`, in simulated ps).
// Every observable head-flit event — injection, arrival, departure,
// ejection, delivery — closes the interval [last, now), splits it into
// stages using per-cycle stall-cause counters plus fixed channel
// constants, and assigns any remainder to a designated residual stage.
// The intervals partition [CreatedAt, DeliveredAt), so the stage sum is
// exactly the end-to-end latency however the packet travelled (express
// pass-through chains, link-level retransmits, Valiant detours included).
package prof

import "fmt"

// Stage is one component of a packet's end-to-end latency.
type Stage int

const (
	// StageSrcQueue is time spent at the source before the head flit
	// first moved: terminal attachment queueing, NI serialization waits,
	// and any source-side stall not attributable to a counted cause.
	StageSrcQueue Stage = iota
	// StageCreditStall is time a ready head flit sat blocked on
	// downstream buffer credits (at the source NI or inside routers).
	StageCreditStall
	// StageVCAlloc is time a ready head flit waited for a virtual-channel
	// grant (route computed, no VC assigned yet).
	StageVCAlloc
	// StageSwitchArb is time a ready head flit held a VC and credits but
	// lost switch arbitration (crossbar contention).
	StageSwitchArb
	// StagePipeline is the router pipeline traversal itself: cycles the
	// head flit was buffered but not yet ready, plus alloc latency.
	StagePipeline
	// StageSerDes is the fixed per-hop serializer/deserializer latency.
	StageSerDes
	// StageWire is channel time of flight beyond SerDes: wire cycles,
	// extra per-channel latency, and link-level retransmission delays.
	StageWire
	// StagePassThrough is time spent traversing overlay express
	// pass-through hops (bypassing router pipelines).
	StagePassThrough
	// StageEject is time a ready head flit waited for an ejection slot
	// at its destination router.
	StageEject
	// StageSerialization is head-to-tail serialization at the
	// destination: the packet's remaining flits draining after the head
	// was delivered.
	StageSerialization

	// NumStages is the number of latency stages.
	NumStages
)

var stageNames = [NumStages]string{
	"src_queue",
	"credit_stall",
	"vc_alloc_stall",
	"switch_arb_stall",
	"pipeline",
	"serdes",
	"wire",
	"pass_through",
	"eject",
	"serialization",
}

// String returns the stage's snake_case name as used in profile output.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage%d", int(s))
	}
	return stageNames[s]
}

// StageFromName returns the stage with the given name, or -1.
func StageFromName(name string) Stage {
	for i, n := range stageNames {
		if n == name {
			return Stage(i)
		}
	}
	return -1
}

// PktRec is the open attribution record of one in-flight packet. Records
// are pooled by the owning NetProf; the hot-path hooks touch only this
// struct (no map lookups, no allocation).
type PktRec struct {
	last   int64            // open interval start (simulated ps)
	stages [NumStages]int64 // closed attribution so far (ps)

	// Per-cycle stall-cause counters inside the open interval, filled by
	// the network's end-of-cycle classification pass. They are converted
	// to picoseconds and reset at the next close event.
	credit    int64
	vcAlloc   int64
	switchArb int64
	eject     int64

	passSeen int  // pass-through hops already attributed
	injected bool // head flit has left the source (src_queue closed)

	next *PktRec // NetProf free list
}

// NoteCredit counts one cycle the head flit sat ready but credit-blocked.
func (r *PktRec) NoteCredit() { r.credit++ }

// NoteVCAlloc counts one cycle the head flit sat ready without a VC grant.
func (r *PktRec) NoteVCAlloc() { r.vcAlloc++ }

// NoteArb counts one cycle the head flit sat ready, granted and credited,
// but lost switch arbitration.
func (r *PktRec) NoteArb() { r.switchArb++ }

// NoteEject counts one cycle the head flit sat ready waiting for an
// ejection slot.
func (r *PktRec) NoteEject() { r.eject++ }

func (r *PktRec) resetOpen(now int64) {
	r.last = now
	r.credit, r.vcAlloc, r.switchArb, r.eject = 0, 0, 0, 0
}

// ClassAgg accumulates retired-packet stage attribution for one message
// class.
type ClassAgg struct {
	Count   int64
	TotalPS int64
	Stages  [NumStages]int64
}

// HeatCell is the congestion accounting of one (router, port, VC) buffer:
// time-weighted occupancy plus per-cause stall cycles of blocked ready
// flits at the buffer front.
type HeatCell struct {
	Occ         int64 `json:"occ,omitempty"`      // buffered flit-cycles
	CreditStall int64 `json:"credit,omitempty"`   // cycles front blocked on credits
	VCAllocGap  int64 `json:"vc_alloc,omitempty"` // cycles front awaited a VC grant
	ArbStall    int64 `json:"arb,omitempty"`      // cycles front lost switch arbitration
	EjectStall  int64 `json:"eject,omitempty"`    // cycles front awaited ejection
}

// Stalls returns the cell's total stall cycles across causes.
func (c *HeatCell) Stalls() int64 {
	return c.CreditStall + c.VCAllocGap + c.ArbStall + c.EjectStall
}

// RouterHeat is one router's heat cells: Ports*VCs cells, port-major,
// with the NI injection port last (matching the router's port order).
type RouterHeat struct {
	Ports int        `json:"ports"`
	VCs   int        `json:"vcs"`
	Cells []HeatCell `json:"cells"`
}

// Cell returns the cell for (port, vc).
func (rh *RouterHeat) Cell(port, vc int) *HeatCell {
	return &rh.Cells[port*rh.VCs+vc]
}

// ChannelHeat is one channel's utilization snapshot.
type ChannelHeat struct {
	Index      int   `json:"index"`
	SrcRouter  int   `json:"src_router"`
	SrcTerm    int   `json:"src_term"`
	DstRouter  int   `json:"dst_router"`
	DstTerm    int   `json:"dst_term"`
	BusyCycles int64 `json:"busy_cycles"`
	Retries    int64 `json:"retries,omitempty"`
}

// NetProf collects network-side attribution: per-class packet stage
// decompositions and per-router heat. One NetProf serves one Network;
// the network owns the hook call sites and the per-cycle classification
// pass, this type owns the arithmetic.
type NetProf struct {
	// Channel timing constants in simulated picoseconds, set by Configure.
	PeriodPS  int64
	SerDesPS  int64
	WirePS    int64
	PassHopPS int64

	Classes []ClassAgg
	Routers []RouterHeat

	mismatches int64
	free       *PktRec
}

// Configure sets the timing constants and class count. Must be called
// before any packet starts.
func (np *NetProf) Configure(periodPS, serdesPS, wirePS, passHopPS int64, classes int) {
	np.PeriodPS = periodPS
	np.SerDesPS = serdesPS
	np.WirePS = wirePS
	np.PassHopPS = passHopPS
	if classes < 1 {
		classes = 1
	}
	np.Classes = make([]ClassAgg, classes)
}

// AddRouter appends heat accounting for a router with the given port and
// VC counts. Call once per router, in router-ID order, after topology
// construction.
func (np *NetProf) AddRouter(ports, vcs int) {
	np.Routers = append(np.Routers, RouterHeat{
		Ports: ports, VCs: vcs, Cells: make([]HeatCell, ports*vcs),
	})
}

// Start opens an attribution record for a packet created at nowPS.
func (np *NetProf) Start(nowPS int64, passHops int) *PktRec {
	r := np.free
	if r != nil {
		np.free = r.next
		*r = PktRec{}
	} else {
		r = new(PktRec)
	}
	r.last = nowPS
	r.passSeen = passHops
	return r
}

// CloseInject closes the source interval when the head flit leaves a
// terminal: counted credit-blocked cycles become credit stall, the rest
// is source queueing.
func (np *NetProf) CloseInject(r *PktRec, nowPS int64) {
	total := nowPS - r.last
	credit := r.credit * np.PeriodPS
	if credit > total {
		credit = total
	}
	r.stages[StageCreditStall] += credit
	r.stages[StageSrcQueue] += total - credit
	r.resetOpen(nowPS)
	r.injected = true
}

// CloseFlight closes a channel-flight interval when the head flit arrives
// at a router or terminal. Each flight begins with exactly one SerDes
// traversal; passHops attributes any overlay express hops taken since the
// last close; the remainder is wire time (including extra channel latency
// and link-level retransmission delays).
func (np *NetProf) CloseFlight(r *PktRec, nowPS int64, passHops int) {
	total := nowPS - r.last
	pd := passHops - r.passSeen
	r.passSeen = passHops
	serdes := np.SerDesPS
	if serdes > total {
		serdes = total
	}
	pass := int64(pd) * np.PassHopPS
	if pass > total-serdes {
		pass = total - serdes
	}
	r.stages[StageSerDes] += serdes
	r.stages[StagePassThrough] += pass
	r.stages[StageWire] += total - serdes - pass
	r.resetOpen(nowPS)
}

// CloseRouter closes a router-residency interval when the head flit
// departs through the crossbar or is ejected: counted stall-cause cycles
// take their stages, the remainder is pipeline traversal — or source
// queueing when the packet entered through a router NI and this is its
// first movement.
func (np *NetProf) CloseRouter(r *PktRec, nowPS int64) {
	rem := nowPS - r.last
	take := func(cycles int64, s Stage) {
		ps := cycles * np.PeriodPS
		if ps > rem {
			ps = rem
		}
		r.stages[s] += ps
		rem -= ps
	}
	take(r.credit, StageCreditStall)
	take(r.vcAlloc, StageVCAlloc)
	take(r.switchArb, StageSwitchArb)
	take(r.eject, StageEject)
	if r.injected {
		r.stages[StagePipeline] += rem
	} else {
		r.stages[StageSrcQueue] += rem
		r.injected = true
	}
	r.resetOpen(nowPS)
}

// Retire folds a delivered packet's record into its class aggregate and
// returns the record to the free list. The interval [last, deliveredPS)
// is the destination serialization tail (head delivered, body draining).
func (np *NetProf) Retire(r *PktRec, class int, createdPS, deliveredPS int64) {
	r.stages[StageSerialization] += deliveredPS - r.last
	if class < 0 || class >= len(np.Classes) {
		class = 0
	}
	agg := &np.Classes[class]
	agg.Count++
	total := deliveredPS - createdPS
	agg.TotalPS += total
	var sum int64
	for i, v := range r.stages {
		agg.Stages[i] += v
		sum += v
	}
	if sum != total {
		np.mismatches++
	}
	r.next = np.free
	np.free = r
}

// Mismatches returns the number of retired packets whose stage sum did
// not equal their measured end-to-end latency. Always zero unless the
// decomposition invariant is broken.
func (np *NetProf) Mismatches() int64 { return np.mismatches }

// Audit reports decomposition violations: any per-packet stage-sum
// mismatch, and any class whose aggregated stage sum diverges from its
// aggregated end-to-end latency. Nil-safe.
func (np *NetProf) Audit(report func(string)) {
	if np == nil {
		return
	}
	if np.mismatches > 0 {
		report(fmt.Sprintf("prof: %d packets with stage sum != end-to-end latency", np.mismatches))
	}
	for ci := range np.Classes {
		agg := &np.Classes[ci]
		var sum int64
		for _, v := range agg.Stages {
			sum += v
		}
		if sum != agg.TotalPS {
			report(fmt.Sprintf("prof: class %s stage sum %d ps != total latency %d ps over %d packets",
				ClassName(ci), sum, agg.TotalPS, agg.Count))
		}
	}
}

// ClassName names a message class for profile output.
func ClassName(class int) string {
	switch class {
	case 0:
		return "request"
	case 1:
		return "response"
	default:
		return fmt.Sprintf("class%d", class)
	}
}

// Run bundles the collectors for one simulation run.
type Run struct {
	Net  *NetProf
	Kern *KernProf
}

// NewRun returns an empty collector set.
func NewRun() *Run {
	return &Run{Net: &NetProf{}, Kern: NewKernProf()}
}
