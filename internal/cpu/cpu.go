// Package cpu models the host processor of Table I: one out-of-order core
// at 4 GHz with issue width 4 and a 64-entry ROB, a 64 KB L1 (2-cycle) and
// a 16 MB L2 (10-cycle), both write-back.
//
// The host thread matters to the paper in two places: it initiates memcpy
// and kernel launches (Fig. 14), and for CG.S and FT.S it performs real
// computation between kernels whose memory latency depends on the memory
// network design (Fig. 18, the overlay study). The model executes an
// instruction trace with out-of-order latency hiding approximated by a
// bounded window of outstanding misses (memory-level parallelism limited
// by the ROB).
package cpu

import (
	"fmt"

	"memnet/internal/cache"
	"memnet/internal/mem"
	"memnet/internal/sim"
	"memnet/internal/stats"
)

// Op is one step of the host instruction trace: Instrs non-memory
// instructions, then (if HasMem) one memory access.
type Op struct {
	Instrs int64
	HasMem bool
	Addr   mem.Addr
	Write  bool
}

// Trace yields the host thread's instruction stream.
type Trace interface {
	Next() (Op, bool)
}

// Port is the CPU's connection to memory below its L2.
type Port interface {
	// Access performs the line access req describes (Addr is virtual) and
	// finishes req (req.Finish) when the response or write acknowledgment
	// returns.
	Access(req *mem.Req)
}

// Config describes the host core.
type Config struct {
	ClockMHz   float64
	IssueWidth int
	ROB        int
	MLP        int // maximum outstanding misses below L2
	L1         cache.Config
	L2         cache.Config
	L1Cycles   int // L1 hit latency
	L2Cycles   int // L2 hit latency
}

// DefaultConfig returns the Table I CPU.
func DefaultConfig() Config {
	return Config{
		ClockMHz:   4000,
		IssueWidth: 4,
		ROB:        64,
		MLP:        8,
		L1: cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4,
			Policy: cache.WriteBackAllocate},
		L2: cache.Config{SizeBytes: 16 << 20, LineBytes: 64, Ways: 16,
			Policy: cache.WriteBackAllocate},
		L1Cycles: 2,
		L2Cycles: 10,
	}
}

// Stats aggregates host activity.
type Stats struct {
	Instrs     stats.Counter
	Loads      stats.Counter
	Stores     stats.Counter
	MemLatency stats.Mean // below-L2 round trip (ps)
	StallPS    stats.Counter
}

// CPU is the host core.
type CPU struct {
	eng  *sim.Engine
	cfg  Config
	clk  sim.Clock
	l1   *cache.Cache
	l2   *cache.Cache
	port Port
	reqs *mem.Reqs

	// execution state
	trace       Trace
	cursor      sim.Time // virtual retire-front time
	outstanding int
	// writeBacks counts eviction write-backs sent below the L2 and not
	// yet acknowledged; they occupy no MLP slot.
	writeBacks int
	// blocked holds a below-L2 access waiting for an MLP slot. The cache
	// lookup already happened (and filled the line), so on resume the
	// access goes straight to the port.
	blocked *mem.Req
	onDone  func()
	running bool

	Stats Stats
}

// New builds a CPU attached to port. Its accesses below the L2 draw their
// requests from reqs.
func New(eng *sim.Engine, cfg Config, port Port, reqs *mem.Reqs) (*CPU, error) {
	if cfg.IssueWidth <= 0 || cfg.MLP <= 0 {
		return nil, fmt.Errorf("cpu: invalid config %+v", cfg)
	}
	if port == nil || reqs == nil {
		return nil, fmt.Errorf("cpu: nil port or request list")
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("cpu: L1: %w", err)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("cpu: L2: %w", err)
	}
	return &CPU{eng: eng, cfg: cfg, clk: sim.ClockMHz(cfg.ClockMHz),
		l1: l1, l2: l2, port: port, reqs: reqs}, nil
}

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// L1HitRate returns the L1 hit rate.
func (c *CPU) L1HitRate() float64 { return c.l1.Stats.HitRate() }

// FlushCaches invalidates the whole cache hierarchy, writing dirty L2
// lines back through the port. The system calls this when another agent
// (a GPU kernel under SKE's relaxed consistency) may have written memory
// the host will read next.
func (c *CPU) FlushCaches() {
	for _, wb := range c.l1.Flush() {
		c.writeBackToL2(wb)
	}
	for _, wb := range c.l2.Flush() {
		c.portWrite(wb)
	}
}

// Busy reports whether a trace is executing.
func (c *CPU) Busy() bool { return c.running }

// Run executes a host trace and calls onDone when the last instruction
// retires and all outstanding memory traffic drains.
func (c *CPU) Run(tr Trace, onDone func()) {
	if c.running {
		panic("cpu: Run while busy")
	}
	c.running = true
	c.trace = tr
	c.cursor = c.eng.Now()
	c.onDone = onDone
	c.process()
}

// process advances the trace until it blocks on the MLP window or ends.
func (c *CPU) process() {
	for {
		if c.blocked != nil {
			if c.outstanding >= c.cfg.MLP {
				return // still blocked
			}
			req := c.blocked
			c.blocked = nil
			c.issueBelow(req)
			continue
		}
		op, ok := c.trace.Next()
		if !ok {
			c.finishWhenDrained()
			return
		}
		if op.Instrs > 0 {
			c.Stats.Instrs.Add(op.Instrs)
			cycles := (op.Instrs + int64(c.cfg.IssueWidth) - 1) / int64(c.cfg.IssueWidth)
			c.cursor += c.clk.Cycles(cycles)
		}
		if op.HasMem {
			c.Stats.Instrs.Inc()
			if !c.tryMem(op) {
				return
			}
		}
	}
}

// tryMem runs the access through the cache hierarchy; a below-L2 miss
// either issues (MLP slot free) or blocks the pipeline.
func (c *CPU) tryMem(op Op) bool {
	if op.Write {
		c.Stats.Stores.Inc()
	} else {
		c.Stats.Loads.Inc()
	}
	addr := op.Addr &^ mem.Addr(c.cfg.L1.LineBytes-1)
	r1 := c.l1.Access(addr, op.Write)
	if r1.HasWriteBack {
		c.writeBackToL2(r1.WriteBack)
	}
	if r1.Hit && !r1.Forward {
		c.cursor += c.clk.Cycles(int64(c.cfg.L1Cycles))
		return true
	}
	r2 := c.l2.Access(addr, op.Write)
	if r2.HasWriteBack {
		c.portWrite(r2.WriteBack)
	}
	if r2.Hit && !r2.Forward {
		c.cursor += c.clk.Cycles(int64(c.cfg.L2Cycles))
		return true
	}
	// Below-L2 miss: needs an MLP slot.
	req := c.newReq(addr, op.Write, missDone)
	if c.outstanding >= c.cfg.MLP {
		c.blocked = req
		return false
	}
	c.issueBelow(req)
	return true
}

// newReq returns a pooled request for the line at addr, finished by done.
func (c *CPU) newReq(addr mem.Addr, write bool, done func(*mem.Req)) *mem.Req {
	req := c.reqs.Get()
	req.Addr = addr
	req.Write = write
	req.Owner = c
	req.Done = done
	return req
}

// sendAt hands req to the memory port as an event at the retire front, or
// now if that lies in the past.
func (c *CPU) sendAt(req *mem.Req) {
	at := c.cursor
	if now := c.eng.Now(); at < now {
		at = now
	}
	req.Issued = at
	c.eng.AtEvent(at, portAccess, req)
}

// portAccess sends a host request to the memory port.
func portAccess(a any) {
	req := a.(*mem.Req)
	req.Owner.(*CPU).port.Access(req)
}

// issueBelow sends a miss to the memory port in an MLP slot.
func (c *CPU) issueBelow(req *mem.Req) {
	c.outstanding++
	c.sendAt(req)
}

// missDone completes a miss: it frees the MLP slot, which may unblock the
// pipeline or finish the run.
func missDone(req *mem.Req) {
	c := req.Owner.(*CPU)
	c.outstanding--
	c.Stats.MemLatency.Add(float64(c.eng.Now() - req.Issued))
	c.reqs.Put(req)
	if c.blocked != nil {
		if now := c.eng.Now(); c.cursor < now {
			c.Stats.StallPS.Add(int64(now - c.cursor))
			c.cursor = now
		}
		c.process()
	} else if c.running {
		c.finishWhenDrained()
	}
}

// writeBackDone releases an acknowledged eviction write-back.
func writeBackDone(req *mem.Req) {
	c := req.Owner.(*CPU)
	c.writeBacks--
	c.reqs.Put(req)
}

// ReqsHeld returns the requests the host holds: misses in flight, the
// miss blocked on the MLP window, and eviction write-backs in flight.
func (c *CPU) ReqsHeld() int64 {
	n := int64(c.outstanding + c.writeBacks)
	if c.blocked != nil {
		n++
	}
	return n
}

// writeBackToL2 installs a dirty L1 victim in the L2. A dirty L2 line it
// displaces goes on to memory.
func (c *CPU) writeBackToL2(addr mem.Addr) {
	if r := c.l2.Access(addr, true); r.HasWriteBack {
		c.portWrite(r.WriteBack)
	}
}

// portWrite issues an eviction write-back without occupying an MLP slot
// (write buffers drain asynchronously).
func (c *CPU) portWrite(addr mem.Addr) {
	c.writeBacks++
	c.sendAt(c.newReq(addr, true, writeBackDone))
}

// finishWhenDrained completes the run once the trace ended and all
// outstanding misses returned.
func (c *CPU) finishWhenDrained() {
	if c.blocked != nil || c.outstanding > 0 {
		return
	}
	// Trace must actually be exhausted: probe via a sentinel — process()
	// only calls this after Next() returned false, and the completion
	// path checks running; both paths are safe.
	if !c.running {
		return
	}
	end := c.cursor
	if now := c.eng.Now(); end < now {
		end = now
	}
	c.running = false
	done := c.onDone
	c.onDone = nil
	if done != nil {
		c.eng.At(end, done)
	}
}
