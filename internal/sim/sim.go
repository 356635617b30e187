// Package sim provides the discrete-event simulation kernel used by every
// timing model in this repository (HMC vaults, network routers, GPU cores,
// the CPU and the PCIe fabric).
//
// Time is a global integer picosecond count. Components in different clock
// domains (the GPU core at 1400 MHz, the network at 1.25 GHz, the CPU at
// 4 GHz, DRAM at 800 MHz) schedule themselves on the same engine by
// converting their local cycle counts to picoseconds through a Clock.
//
// The engine is strictly deterministic: events at the same timestamp run in
// the order they were scheduled.
package sim

import "fmt"

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
)

// Infinity is a timestamp later than any reachable simulation time.
const Infinity Time = 1<<63 - 1

// event is one scheduled callback. Events are stored by value in the heap
// as an (fn, arg) pair: the closure-free fast path (AtEvent/AfterEvent)
// passes a shared top-level function plus a pointer-shaped argument, so
// scheduling allocates nothing; the closure path (At/After) routes through
// runClosure with the closure itself as the argument — func values are
// pointer-shaped, so the interface conversion does not allocate either and
// the only cost is the closure the caller already built.
type event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// runClosure adapts the closure API onto the (fn, arg) representation.
func runClosure(a any) { a.(func())() }

// before orders events by timestamp, then by scheduling order. The seq
// tiebreak makes the order a total one, so heap shape never leaks into
// execution order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a hand-specialized binary min-heap of events. The engine
// runs one heap operation per scheduled event, so this is the hottest
// code in the simulator; compared to container/heap it avoids boxing
// each event into an interface{} (one allocation per Push) and the
// dynamic dispatch of Less/Swap, moving events with hole-style sifts
// (one copy per level instead of a swap's three).
type eventHeap []event

// push inserts ev, sifting the hole up from the tail.
func (h *eventHeap) push(ev event) {
	a := append(*h, ev)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = ev
	*h = a
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the popped event's fn closure — and everything it captures:
// packets, flits, whole component graphs — is not retained by the heap's
// backing array until that slot happens to be overwritten.
func (h *eventHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{}
	a = a[:n]
	*h = a
	if n == 0 {
		return top
	}
	// Sift the hole at the root down, then drop last into it.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && a[r].before(&a[c]) {
			c = r
		}
		if !a[c].before(&last) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = last
	return top
}

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap

	// edge is a slot beside the heap for one pending Ticker edge (fn is
	// nil while it is free). The edge takes its seq from the same counter
	// as every other event, and Step runs whichever of edge and the heap's
	// top comes first in (at, seq) order, so events run in exactly the
	// order the heap alone would give them. A ticker that works every
	// cycle, the NoC's, thus re-arms without a heap push and pop per
	// cycle; a second ticker waking while the slot is taken uses the heap.
	edge event
}

// NewEngine returns an engine with time zero and an empty event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug rather than a recoverable condition, and
// a past event would break the monotonicity the heap's determinism
// contract assumes.
func (e *Engine) At(t Time, fn func()) {
	e.AtEvent(t, runClosure, fn)
}

// After schedules fn to run d picoseconds from now. Negative delays panic:
// they would schedule the event before Now().
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: After with negative delay %d ps (now=%d ps)", d, e.now))
	}
	e.AtEvent(e.now+d, runClosure, fn)
}

// AtEvent schedules fn(arg) at absolute time t — the closure-free fast
// path. fn is typically a shared top-level function and arg the component
// it operates on; with a pointer-shaped arg (pointer, func, map, channel)
// scheduling performs zero allocations, unlike At, whose callers almost
// always build a fresh closure or method value per call. Events scheduled
// through AtEvent and At interleave in one total order (timestamp, then
// scheduling sequence). Scheduling in the past panics, as with At.
func (e *Engine) AtEvent(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (at=%d ps, now=%d ps)", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn, arg: arg})
}

// AfterEvent schedules fn(arg) d picoseconds from now on the closure-free
// fast path. Negative delays panic, as with After.
func (e *Engine) AfterEvent(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: AfterEvent with negative delay %d ps (now=%d ps)", d, e.now))
	}
	e.AtEvent(e.now+d, fn, arg)
}

// scheduleEdge schedules ticker t's edge at time at: in the edge slot when
// it is free, else in the heap.
func (e *Engine) scheduleEdge(at Time, t *Ticker) {
	if e.edge.fn != nil {
		e.AtEvent(at, tickerRun, t)
		return
	}
	e.seq++
	e.edge = event{at: at, seq: e.seq, fn: tickerRun, arg: t}
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int {
	if e.edge.fn != nil {
		return len(e.events) + 1
	}
	return len(e.events)
}

// peek returns the earliest pending event, the edge slot's or the heap's
// top, or nil when none is pending.
func (e *Engine) peek() *event {
	if e.edge.fn != nil && (len(e.events) == 0 || e.edge.before(&e.events[0])) {
		return &e.edge
	}
	if len(e.events) > 0 {
		return &e.events[0]
	}
	return nil
}

// Step runs the earliest pending event and returns true, or returns false if
// the queue is empty.
func (e *Engine) Step() bool {
	next := e.peek()
	if next == nil {
		return false
	}
	var ev event
	if next == &e.edge {
		ev = e.edge
		e.edge = event{}
	} else {
		ev = e.events.pop()
	}
	if ev.at < e.now {
		// Unreachable unless the heap or the edge slot is corrupted: At
		// rejects past events, so time can never move backwards. Kept as a
		// hard assert — silent time travel would invalidate every
		// downstream statistic.
		panic(fmt.Sprintf("sim: time moved backwards (event at %d ps, now=%d ps)", ev.at, e.now))
	}
	e.now = ev.at
	ev.fn(ev.arg)
	return true
}

// AuditInvariants verifies the engine's internal ordering invariants: the
// pending-event heap is a well-formed min-heap (so pops are globally
// ordered) and no pending event, in the heap or the edge slot, lies before
// the current time. It returns nil when both hold. Read-only: safe to call
// between events at any time.
func (e *Engine) AuditInvariants() error {
	h := e.events
	for i := 1; i < len(h); i++ {
		if p := (i - 1) / 2; h[i].before(&h[p]) {
			return fmt.Errorf("sim: event heap order broken at index %d (child %d ps/seq %d before parent %d ps/seq %d)",
				i, h[i].at, h[i].seq, h[p].at, h[p].seq)
		}
	}
	if len(h) > 0 && h[0].at < e.now {
		return fmt.Errorf("sim: earliest pending event at %d ps is before now=%d ps", h[0].at, e.now)
	}
	if e.edge.fn != nil && e.edge.at < e.now {
		return fmt.Errorf("sim: pending ticker edge at %d ps is before now=%d ps", e.edge.at, e.now)
	}
	return nil
}

// Run processes events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil processes events with timestamps <= t and then advances the clock
// to exactly t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	for next := e.peek(); next != nil && next.at <= t; next = e.peek() {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunWhile processes events while cond returns true and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// Clock converts between cycles of a fixed-frequency domain and engine time.
type Clock struct {
	period Time
}

// NewClock returns a clock with the given period in picoseconds.
// It panics if period is not positive.
func NewClock(period Time) Clock {
	if period <= 0 {
		panic("sim: clock period must be positive")
	}
	return Clock{period: period}
}

// ClockMHz returns a clock for a frequency given in MHz.
func ClockMHz(mhz float64) Clock {
	return NewClock(Time(1e6/mhz + 0.5))
}

// Period returns the clock period in picoseconds.
func (c Clock) Period() Time { return c.period }

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.period }

// CycleAt returns the (zero-based) cycle number containing time t.
func (c Clock) CycleAt(t Time) int64 { return int64(t / c.period) }

// NextEdge returns the earliest clock edge at or after t.
func (c Clock) NextEdge(t Time) Time {
	r := t % c.period
	if r == 0 {
		return t
	}
	return t + c.period - r
}

// Ticker runs a component's Tick function on consecutive clock edges while
// there is work to do, and goes quiescent (consuming no events) when Tick
// reports idleness. Call Wake whenever new work arrives.
type Ticker struct {
	eng       *Engine
	clk       Clock
	tick      func() bool // returns true to keep ticking
	scheduled bool
}

// NewTicker creates a dormant ticker; it will not run until Wake is called.
func NewTicker(eng *Engine, clk Clock, tick func() bool) *Ticker {
	return &Ticker{eng: eng, clk: clk, tick: tick}
}

// tickerRun dispatches a ticker edge through the closure-free event path,
// so the per-cycle reschedule of every clocked component (the NoC above
// all) allocates nothing — the method value t.run would cost one
// allocation per wake.
func tickerRun(a any) { a.(*Ticker).run() }

// Wake schedules the next tick on the upcoming clock edge if the ticker is
// not already scheduled. Safe to call redundantly; duplicate wakes coalesce.
func (t *Ticker) Wake() {
	if t.scheduled {
		return
	}
	t.scheduled = true
	edge := t.clk.NextEdge(t.eng.Now())
	if edge == t.eng.Now() {
		// Never tick twice in the same instant: if we are exactly on an
		// edge, run on the next one. Components observe state as of the
		// start of a cycle, so work created mid-cycle starts next cycle.
		edge += t.clk.Period()
	}
	t.eng.scheduleEdge(edge, t)
}

func (t *Ticker) run() {
	t.scheduled = false
	if t.tick() {
		t.Wake()
	}
}
