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
		remaining := len(op.Addrs)
		for _, a := range op.Addrs {
			s.access(w.cta.ctx, a, false, false, func() {
				remaining--
				if remaining == 0 {
					w.step()
				}
			})
		}
	case OpStore:
		g.Stats.Stores.Add(int64(len(op.Addrs)))
		for _, a := range op.Addrs {
			s.access(w.cta.ctx, a, true, false, nil)
		}
		// The warp continues after the stores enter the pipeline.
		g.eng.AfterEvent(g.coreClk.Cycles(int64(len(op.Addrs))), warpStep, w)
	case OpAtomic:
		g.Stats.Atomics.Add(int64(len(op.Addrs)))
		remaining := len(op.Addrs)
		for _, a := range op.Addrs {
			s.access(w.cta.ctx, a, false, true, func() {
				remaining--
				if remaining == 0 {
					w.step()
				}
			})
		}
	}
}

// access runs one line access through the L1 and, when needed, the L2 and
// memory port. done (if non-nil) fires when the response returns; for
// writes a nil done still tracks in-flight drain accounting.
func (s *sm) access(ctx *launchCtx, addr mem.Addr, write, atomic bool, done func()) {
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
		s.below(ctx, addr, false, true, t, done)
		return
	}
	res := s.l1.Access(addr, write)
	if res.Hit && !write {
		g.eng.At(t+g.coreClk.Cycles(int64(g.cfg.L1HitCycles)), done)
		return
	}
	if write {
		// Write-through: forward regardless of hit.
		s.below(ctx, addr, true, false, t, done)
		return
	}
	// Read miss: fill from below.
	s.below(ctx, addr, false, false, t, done)
}

// below sends an access into the L2/memory path with in-flight accounting
// attributed to the issuing kernel context.
func (s *sm) below(ctx *launchCtx, addr mem.Addr, write, atomic bool, at sim.Time, done func()) {
	g := s.g
	s.outstanding++
	ctx.memInFlight++
	start := at
	g.eng.At(at, func() {
		g.l2Access(addr, write, atomic, func() {
			s.outstanding--
			ctx.memInFlight--
			g.Stats.MemLatency.Add(float64(g.eng.Now() - start))
			if rec := ctx.krec; rec != nil {
				rec.MemOps++
				rec.MemWaitPS += int64(g.eng.Now() - start)
			}
			if done != nil {
				done()
			}
			g.maybeDone(ctx)
		})
	})
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
