package sim

import (
	"strings"
	"testing"
)

// TestTypedAndClosureEventsShareOneOrder verifies AtEvent, At and ticker
// edges interleave in scheduling order at equal timestamps. Ticker t1 holds
// the engine's edge slot; t2, woken while the slot is taken, uses the heap.
// Both re-arm from their edge at 10 for the edge at 20.
func TestTypedAndClosureEventsShareOneOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(s string) { got = append(got, s) }
	record := func(a any) { note(*a.(*string)) }
	tick := func(name string) func() bool {
		n := 0
		return func() bool { note(name); n++; return n < 2 }
	}
	t1 := NewTicker(e, NewClock(10), tick("t1"))
	t2 := NewTicker(e, NewClock(10), tick("t2"))
	a, c := "a", "c"
	e.AtEvent(10, record, &a)
	t1.Wake()
	e.At(10, func() { note("b"); e.At(20, func() { note("d") }) })
	t2.Wake()
	e.AtEvent(10, record, &c)
	e.At(5, func() { note("first") })
	if e.Pending() != 6 || len(e.events) != 5 || e.edge.arg != t1 {
		t.Fatalf("Pending() = %d with %d in the heap; want 6, t1 in the slot and the rest in the heap",
			e.Pending(), len(e.events))
	}
	e.Run()
	if got, want := strings.Join(got, " "), "first a t1 b t2 c t1 d t2"; got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestAtEventPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("AtEvent in the past did not panic")
		}
	}()
	e.AtEvent(50, func(any) {}, nil)
}

func TestAfterEventNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("AfterEvent with negative delay did not panic")
		}
	}()
	e.AfterEvent(-1, func(any) {}, nil)
}

// TestTypedEventPathDoesNotAllocate pins the closure-free fast path at zero
// allocations per schedule+dispatch once the event heap has reached its
// high-water mark.
func TestTypedEventPathDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	type node struct{ hits int }
	n := &node{}
	bump := func(a any) { a.(*node).hits++ }
	// Warm the heap's backing array.
	for i := 0; i < 1024; i++ {
		e.AtEvent(e.Now()+Time(i), bump, n)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			e.AtEvent(e.Now()+Time(i), bump, n)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed-event path allocated %.1f times per run, want 0", allocs)
	}
}

// TestTickerWakeDoesNotAllocate covers the per-cycle reschedule every
// clocked component rides on.
func TestTickerWakeDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	clk := NewClock(800)
	work := 0
	var tk *Ticker
	tk = NewTicker(e, clk, func() bool {
		work--
		return work > 0
	})
	// Warm up.
	work = 64
	tk.Wake()
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		work = 64
		tk.Wake()
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("ticker wake/run allocated %.1f times per run, want 0", allocs)
	}
}
