package mem

import (
	"memnet/internal/pool"
	"memnet/internal/sim"
)

// Req is one memory access below an issuer's caches: a GPU L1 miss,
// write-through, atomic or L2 write-back, or a host L2 miss or write-back.
// One Req carries the access from the issuer through the GPU L2, the
// system's memory port, the memory network or a PCIe peer round trip, and
// an HMC vault and DRAM bank, and back. Each layer completes its step with
// a typed event whose argument is the Req, so no layer builds a closure
// per access. Reqs come from a Reqs free list and go back to it once the
// issuer is done.
type Req struct {
	Addr   Addr // line-aligned virtual address
	Write  bool
	Atomic bool

	// Set by the issuer. Issued is when the access left its caches, for
	// latency accounting. Owner is the issuer's context for the access
	// (nil when no issuer needs one). Done hands the completed request
	// back to the issuer; it is a function the issuer defines once, never
	// a closure per access.
	Issued sim.Time
	Owner  any
	Done   func(*Req)

	// Set by the system's memory port. Loc is the decoded physical
	// location (an HMC vault retry rewrites Loc.Vault). Src is the issuing
	// cluster. Peer marks an access served through the endpoint of the
	// cluster that owns the memory (a PCIe or memory-network peer access)
	// rather than issued from Src's own terminal.
	Loc  Loc
	Src  int
	Peer bool

	// Arrive is when the HMC vault queued the access.
	Arrive sim.Time

	// free marks a request on its free list; it guards against double
	// release and use after release.
	free bool
}

// Finish hands r back to its issuer through r.Done. Finishing a released
// request panics.
func (r *Req) Finish() {
	r.MustBeLive("finished")
	r.Done(r)
}

// FinishEvent is Finish as a typed-event handler: eng.AtEvent(t,
// mem.FinishEvent, r) finishes r at t.
func FinishEvent(a any) { a.(*Req).Finish() }

// MustBeLive panics if r has been released: a recycled request still in
// use would silently corrupt two accesses at once. what names the
// attempted use in the message.
func (r *Req) MustBeLive(what string) {
	if r.free {
		panic("mem: released request " + what)
	}
}

// Reqs is a system's free list of requests. It is deterministic and
// single-threaded like every pool in the simulator (see internal/pool), so
// reuse order never depends on anything but the simulation itself.
type Reqs struct {
	free pool.FreeList[Req]
}

// Get returns a request in the zero state.
func (p *Reqs) Get() *Req {
	r := p.free.Get()
	*r = Req{}
	return r
}

// Put recycles r. It drops r's references so a recycled request pins
// nothing, and panics if r was already released.
func (p *Reqs) Put(r *Req) {
	if r.free {
		panic("mem: request released twice")
	}
	*r = Req{free: true}
	p.free.Put(r)
}

// Live returns the requests handed out and not yet released.
func (p *Reqs) Live() int64 {
	_, gets, puts := p.free.Stats()
	return gets - puts
}
