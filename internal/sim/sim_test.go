package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineSameTimestampFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("same-timestamp events ran out of order: got[%d]=%d", i, got[i])
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var step func()
	step = func() {
		fired = append(fired, e.Now())
		if e.Now() < 50 {
			e.After(10, step)
		}
	}
	e.At(0, step)
	e.Run()
	if len(fired) != 6 {
		t.Fatalf("fired %d times, want 6", len(fired))
	}
	for i, ts := range fired {
		if ts != Time(i*10) {
			t.Fatalf("fired[%d] = %d, want %d", i, ts, i*10)
		}
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEnginePastPanicMessageHasTimes(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("scheduling in the past did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "at=50") || !strings.Contains(msg, "now=100") {
			t.Fatalf("panic %v lacks event/now time context", r)
		}
	}()
	e.At(50, func() {})
}

func TestAfterNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("After with a negative delay did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "negative delay") {
			t.Fatalf("panic %v does not name the negative delay", r)
		}
	}()
	e.After(-1, func() {})
}

func TestAfterNegativeDelayPanicsMidRun(t *testing.T) {
	// A negative delay issued from inside an event must panic even though
	// now+d may still be a positive timestamp.
	e := NewEngine()
	panicked := false
	e.At(1000, func() {
		defer func() { panicked = recover() != nil }()
		e.After(-500, func() {})
	})
	e.Run()
	if !panicked {
		t.Fatal("After(-500) at t=1000 did not panic")
	}
}

func TestAuditInvariantsCleanEngine(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 200; i++ {
		e.After(Time(i%17)*10, func() {})
	}
	if err := e.AuditInvariants(); err != nil {
		t.Fatalf("healthy engine failed audit: %v", err)
	}
	e.Run()
	if err := e.AuditInvariants(); err != nil {
		t.Fatalf("drained engine failed audit: %v", err)
	}
}

func TestAuditInvariantsDetectsCorruption(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.At(20, func() {})
	e.At(30, func() {})
	// Corrupt the heap directly: swap the root past its children.
	e.events[0].at = 99
	if err := e.AuditInvariants(); err == nil {
		t.Fatal("audit missed a corrupted heap")
	}

	// A ticker edge in the engine's slot that lies before now.
	e = NewEngine()
	NewTicker(e, NewClock(10), func() bool { return false }).Wake()
	e.At(5, func() {})
	e.Step()
	if err := e.AuditInvariants(); err != nil {
		t.Fatalf("healthy pending edge failed audit: %v", err)
	}
	e.edge.at = 3
	if err := e.AuditInvariants(); err == nil || !strings.Contains(err.Error(), "ticker edge") {
		t.Fatalf("audit missed an edge before now: %v", err)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "time moved backwards") {
			t.Fatalf("Step ran an edge before now without the backwards-time panic (recovered %q)", r)
		}
	}()
	e.Step()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunUntil(25) // no events in (20,25]
	if e.Now() != 25 {
		t.Fatalf("Now() after empty RunUntil = %d, want 25", e.Now())
	}

	// A ticker edge pending in the engine's slot counts and waits its turn.
	ticks := 0
	NewTicker(e, NewClock(40), func() bool { ticks++; return ticks < 2 }).Wake()
	if e.Pending() != 2 {
		t.Fatalf("Pending() with an edge at 40 = %d, want 2", e.Pending())
	}
	e.RunUntil(39)
	if ran != 3 || ticks != 0 || e.Now() != 39 || e.Pending() != 1 {
		t.Fatalf("RunUntil(39): ran %d, ticks %d, now %d, pending %d; want 3, 0, 39, 1",
			ran, ticks, e.Now(), e.Pending())
	}
	e.RunUntil(40)
	if ticks != 1 || e.Pending() != 1 {
		t.Fatalf("RunUntil(40): ticks %d, pending %d; want 1 and the re-armed edge", ticks, e.Pending())
	}
	e.Run()
	if ticks != 2 || e.Now() != 80 || e.Pending() != 0 {
		t.Fatalf("Run: ticks %d, now %d, pending %d; want 2, 80, 0", ticks, e.Now(), e.Pending())
	}
}

func TestRunWhile(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() { n++ })
	}
	e.RunWhile(func() bool { return n < 4 })
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
}

func TestClockEdges(t *testing.T) {
	c := NewClock(800) // 1.25 GHz
	cases := []struct{ in, want Time }{
		{0, 0}, {1, 800}, {799, 800}, {800, 800}, {801, 1600},
	}
	for _, tc := range cases {
		if got := c.NextEdge(tc.in); got != tc.want {
			t.Errorf("NextEdge(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if c.Cycles(5) != 4000 {
		t.Errorf("Cycles(5) = %d, want 4000", c.Cycles(5))
	}
	if c.CycleAt(1601) != 2 {
		t.Errorf("CycleAt(1601) = %d, want 2", c.CycleAt(1601))
	}
}

func TestClockMHz(t *testing.T) {
	cases := []struct {
		mhz    float64
		period Time
	}{
		{1250, 800}, {1400, 714}, {4000, 250}, {700, 1429}, {800, 1250},
	}
	for _, tc := range cases {
		if got := ClockMHz(tc.mhz).Period(); got != tc.period {
			t.Errorf("ClockMHz(%v).Period() = %d, want %d", tc.mhz, got, tc.period)
		}
	}
}

func TestClockPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestTickerSleepsWhenIdle(t *testing.T) {
	e := NewEngine()
	clk := NewClock(100)
	work := 3
	ticks := 0
	tk := NewTicker(e, clk, func() bool {
		ticks++
		work--
		return work > 0
	})
	tk.Wake()
	e.Run()
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if e.Pending() != 0 {
		t.Fatal("ticker left events pending after going idle")
	}
	// Waking again resumes ticking on a clock edge.
	work = 2
	tk.Wake()
	e.Run()
	if ticks != 5 {
		t.Fatalf("ticks after re-wake = %d, want 5", ticks)
	}
	if e.Now()%100 != 0 {
		t.Fatalf("ticker ran off clock edge at %d", e.Now())
	}
}

func TestTickerCoalescesWakes(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := NewTicker(e, NewClock(10), func() bool { ticks++; return false })
	tk.Wake()
	tk.Wake()
	tk.Wake()
	e.Run()
	if ticks != 1 {
		t.Fatalf("ticks = %d, want 1 (wakes must coalesce)", ticks)
	}
}

func TestTickerNeverTicksTwiceSameInstant(t *testing.T) {
	e := NewEngine()
	clk := NewClock(10)
	var times []Time
	var tk *Ticker
	tk = NewTicker(e, clk, func() bool {
		times = append(times, e.Now())
		return len(times) < 3
	})
	// Wake exactly on an edge: first tick must land on the *next* edge.
	e.At(20, func() { tk.Wake() })
	e.Run()
	if times[0] != 30 {
		t.Fatalf("first tick at %d, want 30", times[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("tick times not strictly increasing: %v", times)
		}
	}
}

func TestQuickNextEdgeInvariants(t *testing.T) {
	f := func(period uint16, at uint32) bool {
		p := Time(period%5000) + 1
		c := NewClock(p)
		tm := Time(at)
		edge := c.NextEdge(tm)
		return edge >= tm && edge%p == 0 && edge-tm < p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEngineTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.After(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
