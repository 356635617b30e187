package gpu

import (
	"memnet/internal/cache"
	"memnet/internal/mem"
	"memnet/internal/sim"
)

// sm is one stream multiprocessor: CTA slots, warps, a private L1 and an
// issue pipeline shared by all resident warps.
type sm struct {
	g  *GPU
	id int
	l1 *cache.Cache

	residentCTAs    int
	residentThreads int

	// issueFree serializes warp-instruction issue at IssuePerCycle per
	// core cycle; l1Free serializes the L1 port at one access per cycle.
	issueFree sim.Time
	l1Free    sim.Time

	outstanding int // below-L1 memory ops in flight from this SM
}

type ctaState struct {
	id        int
	ctx       *launchCtx
	threads   int
	warpsLeft int
}

// fits reports whether one more CTA of kernel k can become resident under
// the SM's CTA-count and thread-count limits.
func (s *sm) fits(k Kernel) bool {
	if s.residentCTAs >= s.g.cfg.MaxCTAsPerCore {
		return false
	}
	t := k.ThreadsPerCTA()
	if t < 1 {
		t = 1
	}
	return s.residentCTAs == 0 || s.residentThreads+t <= s.g.cfg.MaxThreadsPerCore
}

// warpState is one warp's execution context; warps advance as independent
// event chains.
type warpState struct {
	sm    *sm
	cta   *ctaState
	trace WarpTrace
	// op is the memory instruction being issued. step sets it; it stays
	// put while issueMem waits for the SM's MSHRs to free.
	op WarpOp
	// waiting counts the accesses of the warp's load or atomic still
	// outstanding; the last one to respond resumes the warp.
	waiting int
}

func (s *sm) startCTA(ctx *launchCtx, id int) {
	g := s.g
	warps := g.warpsPerCTA(ctx.kernel)
	threads := ctx.kernel.ThreadsPerCTA()
	if threads < 1 {
		threads = 1
	}
	cta := &ctaState{id: id, ctx: ctx, threads: threads, warpsLeft: warps}
	ctx.activeIDs = append(ctx.activeIDs, id)
	s.residentCTAs++
	s.residentThreads += threads
	ctx.activeCTAs++
	g.traceOccupancy()
	for w := 0; w < warps; w++ {
		ws := &warpState{sm: s, cta: cta, trace: ctx.kernel.WarpTrace(id, w)}
		g.eng.AfterEvent(0, warpStep, ws)
	}
}

// warpStep dispatches a warp's next step on the closure-free event path;
// the method value w.step would allocate on every reschedule.
func warpStep(a any) { a.(*warpState).step() }

// warpIssueMem issues (or retries) the warp's pending memory instruction
// on the closure-free event path.
func warpIssueMem(a any) { a.(*warpState).issueMem() }

// warpResponse delivers one response to a warp blocked on a load or
// atomic: an L1 hit's data, or an access that went below the L1.
func warpResponse(a any) { a.(*warpState).response() }

// response counts one arrived response; the last resumes the warp.
func (w *warpState) response() {
	w.waiting--
	if w.waiting == 0 {
		w.step()
	}
}

// step fetches and issues the warp's next instruction.
func (w *warpState) step() {
	if w.sm.g.failed {
		return
	}
	op, ok := w.trace.Next()
	if !ok {
		w.finish()
		return
	}
	s := w.sm
	g := s.g
	g.Stats.WarpInstrs.Inc()
	if rec := w.cta.ctx.krec; rec != nil {
		rec.Instrs++
		rec.ComputeCycles += int64(op.Compute)
	}
	now := g.eng.Now()
	slot := now
	if s.issueFree > slot {
		slot = s.issueFree
	}
	s.issueFree = slot + g.coreClk.Period()/sim.Time(g.cfg.IssuePerCycle)
	ready := slot + g.coreClk.Cycles(int64(op.Compute))
	if op.Kind == OpCompute || len(op.Addrs) == 0 {
		g.eng.AtEvent(ready, warpStep, w)
		return
	}
	w.op = op
	g.eng.AtEvent(ready, warpIssueMem, w)
}

// issueMem performs the memory half of an instruction. Loads and atomics
// block the warp until every coalesced access responds; stores release the
// warp after issue (write-through, relaxed consistency) but still count
// against the SM's outstanding-request limit until acknowledged.
func (w *warpState) issueMem() {
	s := w.sm
	g := s.g
	if g.failed {
		return
	}
	op := w.op
	if s.outstanding+len(op.Addrs) > g.cfg.MaxOutstanding {
		g.eng.AfterEvent(g.coreClk.Cycles(int64(g.cfg.RetryCycles)), warpIssueMem, w)
		return
	}
	switch op.Kind {
	case OpLoad:
		g.Stats.Loads.Add(int64(len(op.Addrs)))
		w.waiting = len(op.Addrs)
		for _, a := range op.Addrs {
			s.access(w, a, false, false)
		}
	case OpStore:
		g.Stats.Stores.Add(int64(len(op.Addrs)))
		for _, a := range op.Addrs {
			s.access(w, a, true, false)
		}
		// The warp continues after the stores enter the pipeline.
		g.eng.AfterEvent(g.coreClk.Cycles(int64(len(op.Addrs))), warpStep, w)
	case OpAtomic:
		g.Stats.Atomics.Add(int64(len(op.Addrs)))
		w.waiting = len(op.Addrs)
		for _, a := range op.Addrs {
			s.access(w, a, false, true)
		}
	}
}

// access runs one line access of warp w through the L1 and, when needed,
// the L2 and memory port. A load or atomic responds to the warp; a store
// responds to no one, but counts in flight until acknowledged.
func (s *sm) access(w *warpState, addr mem.Addr, write, atomic bool) {
	g := s.g
	addr &^= mem.Addr(g.cfg.L1.LineBytes - 1)
	now := g.eng.Now()
	t := now
	if s.l1Free > t {
		t = s.l1Free
	}
	s.l1Free = t + g.coreClk.Period()

	if atomic {
		// Section III-D: evict the line before the atomic bypasses to
		// the HMC logic layer.
		s.l1.Invalidate(addr)
		s.below(w, addr, false, true, t)
		return
	}
	res := s.l1.Access(addr, write)
	if res.Hit && !write {
		g.eng.AtEvent(t+g.coreClk.Cycles(int64(g.cfg.L1HitCycles)), warpResponse, w)
		return
	}
	// Write-through stores forward regardless of hit; read misses fill
	// from below.
	s.below(w, addr, write, false, t)
}

// below sends an access of warp w into the L2/memory path at time at, as
// one pooled request, with in-flight accounting attributed to the warp's
// kernel context.
func (s *sm) below(w *warpState, addr mem.Addr, write, atomic bool, at sim.Time) {
	g := s.g
	s.outstanding++
	w.cta.ctx.memInFlight++
	req := g.reqs.Get()
	req.Addr = addr
	req.Write = write
	req.Atomic = atomic
	req.Issued = at
	req.Owner = w
	req.Done = crossbarBack
	g.eng.AtEvent(at, l2Enter, req)
}

// requestDone retires a request of an SM: it leaves the SM's and its
// context's in-flight counts, records its latency, responds to the warp
// if the warp waits for it (loads and atomics) and releases the request.
func requestDone(a any) {
	req := a.(*mem.Req)
	w := req.Owner.(*warpState)
	s := w.sm
	g := s.g
	ctx := w.cta.ctx
	s.outstanding--
	ctx.memInFlight--
	lat := g.eng.Now() - req.Issued
	g.Stats.MemLatency.Add(float64(lat))
	if rec := ctx.krec; rec != nil {
		rec.MemOps++
		rec.MemWaitPS += int64(lat)
	}
	waited := !req.Write
	g.reqs.Put(req)
	if waited {
		w.response()
	}
	g.maybeDone(ctx)
}

// finish retires one warp; the last warp of a CTA frees its slot.
func (w *warpState) finish() {
	w.cta.warpsLeft--
	if w.cta.warpsLeft > 0 {
		return
	}
	s := w.sm
	s.residentCTAs--
	s.residentThreads -= w.cta.threads
	s.g.ctaFinished(s, w.cta)
}
