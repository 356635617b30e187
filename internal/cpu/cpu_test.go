package cpu

import (
	"reflect"
	"testing"

	"memnet/internal/mem"
	"memnet/internal/sim"
)

type sliceTrace struct {
	ops []Op
	i   int
}

func (t *sliceTrace) Next() (Op, bool) {
	if t.i >= len(t.ops) {
		return Op{}, false
	}
	op := t.ops[t.i]
	t.i++
	return op, true
}

type fixedPort struct {
	eng      *sim.Engine
	delay    sim.Time
	accesses int
	// writeBacks lists the eviction write-backs in arrival order: the
	// requests portWrite issues, which no MLP slot waits for.
	writeBacks []mem.Addr
}

func (p *fixedPort) Access(req *mem.Req) {
	p.accesses++
	if reflect.ValueOf(req.Done).Pointer() == reflect.ValueOf(writeBackDone).Pointer() {
		p.writeBacks = append(p.writeBacks, req.Addr)
	}
	p.eng.AfterEvent(p.delay, mem.FinishEvent, req)
}

func run(t *testing.T, cfg Config, ops []Op, delay sim.Time) (*CPU, *fixedPort, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	port := &fixedPort{eng: eng, delay: delay}
	c, err := New(eng, cfg, port, new(mem.Reqs))
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time = -1
	c.Run(&sliceTrace{ops: ops}, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt < 0 {
		t.Fatal("trace never completed")
	}
	return c, port, doneAt
}

func TestPureComputeTiming(t *testing.T) {
	// 4000 instructions at width 4 and 4 GHz: 1000 cycles = 250 ns.
	_, port, doneAt := run(t, DefaultConfig(), []Op{{Instrs: 4000}}, 0)
	if doneAt != 250*sim.Nanosecond {
		t.Fatalf("compute time = %d ps, want 250000", doneAt)
	}
	if port.accesses != 0 {
		t.Fatal("pure compute touched memory")
	}
}

func TestCacheHitsAvoidMemory(t *testing.T) {
	ops := []Op{
		{HasMem: true, Addr: 0x1000},
		{HasMem: true, Addr: 0x1000},
		{HasMem: true, Addr: 0x1020}, // same 64B line
	}
	c, port, _ := run(t, DefaultConfig(), ops, 100*sim.Nanosecond)
	if port.accesses != 1 {
		t.Fatalf("memory accesses = %d, want 1", port.accesses)
	}
	if c.Stats.Loads.Value() != 3 {
		t.Fatalf("loads = %d, want 3", c.Stats.Loads.Value())
	}
}

func TestMissesOverlapUpToMLP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 8
	var ops []Op
	for i := 0; i < 8; i++ {
		ops = append(ops, Op{HasMem: true, Addr: mem.Addr(0x10000 + i*4096)})
	}
	const lat = 1 * sim.Microsecond
	_, _, doneAt := run(t, cfg, ops, lat)
	if doneAt > lat+lat/2 {
		t.Fatalf("8 overlapping misses took %d, want ~%d", doneAt, lat)
	}
}

func TestMLPLimitSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 1
	var ops []Op
	for i := 0; i < 4; i++ {
		ops = append(ops, Op{HasMem: true, Addr: mem.Addr(0x10000 + i*4096)})
	}
	const lat = 1 * sim.Microsecond
	c, _, doneAt := run(t, cfg, ops, lat)
	if doneAt < 4*lat {
		t.Fatalf("4 misses with MLP=1 took %d, want >= %d", doneAt, 4*lat)
	}
	if c.Stats.StallPS.Value() == 0 {
		t.Fatal("stall time not recorded")
	}
}

func TestWriteBackEvictionReachesMemory(t *testing.T) {
	// Dirty a line, then stream enough conflicting lines through the tiny
	// hierarchy to force its write-back out of L2.
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 256 // 4 lines, 4-way: one set
	cfg.L1.Ways = 4
	cfg.L2.SizeBytes = 512 // 8 lines
	cfg.L2.Ways = 8
	var ops []Op
	ops = append(ops, Op{HasMem: true, Addr: 0x0, Write: true})
	for i := 1; i <= 16; i++ {
		ops = append(ops, Op{HasMem: true, Addr: mem.Addr(i * 4096)})
	}
	c, port, _ := run(t, cfg, ops, 10*sim.Nanosecond)
	// 17 misses plus at least one dirty write-back.
	if port.accesses < 18 {
		t.Fatalf("memory accesses = %d, want >= 18 (write-back missing)", port.accesses)
	}
	if c.Stats.Stores.Value() != 1 {
		t.Fatalf("stores = %d, want 1", c.Stats.Stores.Value())
	}
}

// TestDirtyL2VictimOfL1WriteBackReachesPort writes a dirty L1 victim into
// an L2 whose only line is dirty and another address. The displaced L2
// line must reach the port, on a demand miss and on a flush alike.
func TestDirtyL2VictimOfL1WriteBackReachesPort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1.SizeBytes, cfg.L1.Ways = 128, 2 // two 64B lines, one set
	cfg.L2.SizeBytes, cfg.L2.Ways = 64, 1  // one line
	const a, b, c = mem.Addr(0x1000), mem.Addr(0x2000), mem.Addr(0x3000)
	dirtyAB := []Op{{HasMem: true, Addr: a, Write: true}, {HasMem: true, Addr: b, Write: true}}

	// Writing a then b leaves L1 {a, b} and L2 {b} dirty (b's fill wrote a
	// back). Reading c evicts a from the L1; a displaces dirty b from the
	// L2, then c displaces a.
	_, port, _ := run(t, cfg, append(dirtyAB, Op{HasMem: true, Addr: c}), 10*sim.Nanosecond)
	if want := []mem.Addr{a, b, a}; !reflect.DeepEqual(port.writeBacks, want) {
		t.Errorf("demand miss: write-backs = %#x, want %#x", port.writeBacks, want)
	}

	// Flushing L1 {a, b} writes a into the L2 (displacing b), then b
	// (displacing a); the L2 flush then writes b.
	host, port, _ := run(t, cfg, dirtyAB, 10*sim.Nanosecond)
	port.writeBacks = nil
	host.FlushCaches()
	host.eng.Run()
	if want := []mem.Addr{b, a, b}; !reflect.DeepEqual(port.writeBacks, want) {
		t.Errorf("flush: write-backs = %#x, want %#x", port.writeBacks, want)
	}
}

func TestSlowMemorySlowsCompletion(t *testing.T) {
	ops := []Op{{HasMem: true, Addr: 0x5000}, {Instrs: 100}}
	_, _, fast := run(t, DefaultConfig(), ops, 50*sim.Nanosecond)
	_, _, slow := run(t, DefaultConfig(), ops, 500*sim.Nanosecond)
	if slow <= fast {
		t.Fatalf("slower memory (%d) not slower than fast (%d)", slow, fast)
	}
}

func TestRunWhileBusyPanics(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, DefaultConfig(), &fixedPort{eng: eng, delay: sim.Microsecond}, new(mem.Reqs))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(&sliceTrace{ops: []Op{{HasMem: true, Addr: 1 << 20}}}, nil)
	if !c.Busy() {
		t.Fatal("CPU should be busy mid-run")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	c.Run(&sliceTrace{}, nil)
}

func TestBadConfigRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{}, &fixedPort{eng: eng}, new(mem.Reqs)); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := New(eng, DefaultConfig(), nil, new(mem.Reqs)); err == nil {
		t.Fatal("nil port accepted")
	}
}

func TestEmptyTraceCompletesImmediately(t *testing.T) {
	_, _, doneAt := run(t, DefaultConfig(), nil, 0)
	if doneAt != 0 {
		t.Fatalf("empty trace completed at %d, want 0", doneAt)
	}
}
