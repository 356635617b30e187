package cpu

import (
	"testing"

	"memnet/internal/mem"
	"memnet/internal/sim"
)

func TestFlushCachesForcesRefetch(t *testing.T) {
	eng := sim.NewEngine()
	port := &fixedPort{eng: eng, delay: 100 * sim.Nanosecond}
	c, err := New(eng, DefaultConfig(), port, new(mem.Reqs))
	if err != nil {
		t.Fatal(err)
	}
	run := func(ops []Op) {
		done := false
		c.Run(&sliceTrace{ops: ops}, func() { done = true })
		eng.Run()
		if !done {
			t.Fatal("trace incomplete")
		}
	}
	run([]Op{{HasMem: true, Addr: 0x4000}})
	if port.accesses != 1 {
		t.Fatalf("accesses = %d, want 1", port.accesses)
	}
	// Warm: second read hits.
	run([]Op{{HasMem: true, Addr: 0x4000}})
	if port.accesses != 1 {
		t.Fatalf("accesses = %d, want 1 (warm hit)", port.accesses)
	}
	// After a flush (GPU kernel wrote memory), the read must refetch.
	c.FlushCaches()
	run([]Op{{HasMem: true, Addr: 0x4000}})
	if port.accesses != 2 {
		t.Fatalf("accesses = %d, want 2 (flush forces refetch)", port.accesses)
	}
}

func TestFlushWritesBackDirtyLines(t *testing.T) {
	eng := sim.NewEngine()
	port := &fixedPort{eng: eng, delay: 10 * sim.Nanosecond}
	c, err := New(eng, DefaultConfig(), port, new(mem.Reqs))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	c.Run(&sliceTrace{ops: []Op{{HasMem: true, Addr: 0x8000, Write: true}}}, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("trace incomplete")
	}
	before := port.accesses
	c.FlushCaches()
	eng.Run()
	if port.accesses != before+1 {
		t.Fatalf("flush issued %d extra accesses, want 1 dirty write-back", port.accesses-before)
	}
}
