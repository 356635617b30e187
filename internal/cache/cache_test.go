package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memnet/internal/mem"
)

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func gpuL1(t *testing.T) *Cache {
	return newCache(t, Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 4, Policy: WriteThroughNoAllocate})
}

func TestReadMissThenHit(t *testing.T) {
	c := gpuL1(t)
	r := c.Access(0x1000, false)
	if r.Hit || !r.Fill || !r.Forward {
		t.Fatalf("first read = %+v, want miss+fill+forward", r)
	}
	r = c.Access(0x1000+64, false) // same 128B line
	if !r.Hit || r.Forward {
		t.Fatalf("second read = %+v, want hit", r)
	}
	if c.Stats.ReadHits.Value() != 1 || c.Stats.ReadMisses.Value() != 1 {
		t.Fatal("read stats wrong")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := gpuL1(t)
	// Write miss: forwarded, NOT allocated.
	r := c.Access(0x2000, true)
	if r.Hit || r.Fill || !r.Forward {
		t.Fatalf("write miss = %+v, want forward only", r)
	}
	if c.Probe(0x2000) {
		t.Fatal("write-no-allocate must not fill")
	}
	// Read fill, then write hit: updated in place but still forwarded.
	c.Access(0x2000, false)
	r = c.Access(0x2000, true)
	if !r.Hit || !r.Forward {
		t.Fatalf("write hit = %+v, want hit+forward (write-through)", r)
	}
	if c.Stats.WriteBacks.Value() != 0 {
		t.Fatal("write-through cache must never write back")
	}
}

func TestWriteBackAllocate(t *testing.T) {
	c := newCache(t, Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, Policy: WriteBackAllocate})
	r := c.Access(0x40, true)
	if !r.Fill || !r.Forward {
		t.Fatalf("write-allocate miss = %+v, want fill", r)
	}
	r = c.Access(0x40, true)
	if !r.Hit || r.Forward {
		t.Fatalf("write-back hit = %+v, want absorbed", r)
	}
	// Evict the dirty line by filling its set (8 sets: stride 64*8=512).
	r1 := c.Access(0x40+512, false)
	r2 := c.Access(mem.Addr(0x40+2*512), false)
	if r1.HasWriteBack || !r2.HasWriteBack {
		t.Fatalf("expected write-back on second conflicting fill: %+v %+v", r1, r2)
	}
	if r2.WriteBack != 0x40 {
		t.Fatalf("write-back addr = %#x, want 0x40", uint64(r2.WriteBack))
	}
}

func TestLRUReplacement(t *testing.T) {
	c := newCache(t, Config{SizeBytes: 4 * 64, LineBytes: 64, Ways: 4, Policy: WriteThroughNoAllocate})
	// One set, 4 ways. Fill A B C D, touch A, fill E: victim must be B.
	addrs := []mem.Addr{0, 64 * 1, 64 * 2, 64 * 3}
	_ = addrs
	a, b, cc, d, e := mem.Addr(0), mem.Addr(1<<12), mem.Addr(2<<12), mem.Addr(3<<12), mem.Addr(4<<12)
	for _, x := range []mem.Addr{a, b, cc, d} {
		c.Access(x, false)
	}
	c.Access(a, false) // refresh A
	c.Access(e, false) // evict LRU = B
	if !c.Probe(a) || c.Probe(b) || !c.Probe(cc) || !c.Probe(d) || !c.Probe(e) {
		t.Fatal("LRU victim selection wrong")
	}
}

func TestInvalidateForAtomics(t *testing.T) {
	c := gpuL1(t)
	c.Access(0x3000, false)
	if !c.Probe(0x3000) {
		t.Fatal("fill failed")
	}
	wb, dirty := c.Invalidate(0x3000)
	if dirty || wb != 0 {
		t.Fatal("write-through line cannot be dirty")
	}
	if c.Probe(0x3000) {
		t.Fatal("line still resident after invalidate")
	}
	if c.Stats.Invalidates.Value() != 1 {
		t.Fatal("invalidate not counted")
	}
	// Invalidating a missing line is a no-op.
	if _, d := c.Invalidate(0x9999000); d {
		t.Fatal("missing line reported dirty")
	}
}

func TestInvalidateDirtyReturnsWriteBack(t *testing.T) {
	c := newCache(t, Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, Policy: WriteBackAllocate})
	c.Access(0x80, true)
	wb, dirty := c.Invalidate(0x80)
	if !dirty || wb != 0x80 {
		t.Fatalf("Invalidate = (%#x, %v), want (0x80, true)", uint64(wb), dirty)
	}
}

func TestFlushReturnsDirtyLines(t *testing.T) {
	c := newCache(t, Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, Policy: WriteBackAllocate})
	c.Access(0x100, true)
	c.Access(0x200, false)
	dirty := c.Flush()
	if len(dirty) != 1 || dirty[0] != 0x100 {
		t.Fatalf("Flush dirty = %v, want [0x100]", dirty)
	}
	if c.Probe(0x100) || c.Probe(0x200) {
		t.Fatal("lines survive flush")
	}
}

func TestHitRate(t *testing.T) {
	c := gpuL1(t)
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	if hr := c.Stats.HitRate(); hr != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", hr)
	}
	var empty Stats
	if empty.HitRate() != 0 || empty.ReadHitRate() != 0 {
		t.Fatal("empty stats must report 0")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 1000, LineBytes: 128, Ways: 4},    // non-power-of-two sets
		{SizeBytes: 1 << 10, LineBytes: 100, Ways: 4}, // line size
		{SizeBytes: 256, LineBytes: 128, Ways: 4},     // fewer lines than ways
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// table1 lists the Table I geometries: GPU L1 32KB 4-way 128B, GPU L2 2MB
// 16-way 128B, CPU L1 64KB 4-way 64B and CPU L2 16MB 16-way 64B.
var table1 = []Config{
	{SizeBytes: 32 << 10, LineBytes: 128, Ways: 4, Policy: WriteThroughNoAllocate},
	{SizeBytes: 2 << 20, LineBytes: 128, Ways: 16, Policy: WriteThroughNoAllocate},
	{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Policy: WriteBackAllocate},
	{SizeBytes: 16 << 20, LineBytes: 64, Ways: 16, Policy: WriteBackAllocate},
}

func TestTable1Geometries(t *testing.T) {
	for _, cfg := range table1 {
		if _, err := New(cfg); err != nil {
			t.Errorf("Table I geometry %+v rejected: %v", cfg, err)
		}
	}
}

func TestQuickProbeAfterReadAccess(t *testing.T) {
	c := gpuL1(t)
	f := func(addr uint32) bool {
		a := mem.Addr(addr)
		c.Access(a, false)
		return c.Probe(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLineGranularity(t *testing.T) {
	c := gpuL1(t)
	f := func(addr uint32, off uint8) bool {
		a := mem.Addr(addr)
		c.Access(a, false)
		// Any offset within the same 128B line must hit.
		same := (a &^ 127) | mem.Addr(off)&127
		return c.Access(same, false).Hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// built keeps New's result reachable, so the Cache is heap-allocated even
// if New is inlined.
var built *Cache

// TestNewAllocatesOnlyTheCache pins the lazy line store: building a cache
// of any Table I size, the 16 MB CPU L2 included, is one allocation.
func TestNewAllocatesOnlyTheCache(t *testing.T) {
	for _, cfg := range table1 {
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if built, err = New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("New(%+v) made %v allocations, want 1", cfg, allocs)
		}
	}
}

// TestUnbuiltStoreAllocatesNothing checks that lookups, invalidations,
// flushes and write-no-allocate misses on a never-filled cache see no
// lines and build no plane.
func TestUnbuiltStoreAllocatesNothing(t *testing.T) {
	for _, cfg := range table1 {
		c := newCache(t, cfg)
		type op struct {
			name string
			fn   func()
		}
		ops := []op{
			{"Probe", func() {
				if c.Probe(0x4000) {
					t.Error("Probe found a line")
				}
			}},
			{"Invalidate", func() {
				if wb, dirty := c.Invalidate(0x4000); wb != 0 || dirty {
					t.Errorf("Invalidate = (%#x, %v), want no line", uint64(wb), dirty)
				}
			}},
			{"Flush", func() {
				if dirty := c.Flush(); dirty != nil {
					t.Errorf("Flush = %v, want nil", dirty)
				}
			}},
		}
		if cfg.Policy == WriteThroughNoAllocate {
			ops = append(ops, op{"write miss", func() {
				if r := c.Access(0x4000, true); r != (Result{Forward: true}) {
					t.Errorf("write miss = %+v, want forward only", r)
				}
			}})
		}
		for _, op := range ops {
			if allocs := testing.AllocsPerRun(10, op.fn); allocs != 0 {
				t.Errorf("%+v: %s made %v allocations, want 0", cfg, op.name, allocs)
			}
		}
		if c.planes != nil || c.Stats.Invalidates.Value() != 0 {
			t.Errorf("%+v: plane built or line invalidated without a fill", cfg)
		}
	}
}

// TestFirstFillBuildsStore checks that a fill builds a way's plane only
// when its set needs that way: the first read miss, or write miss under
// write-allocate, builds plane 0 alone, all-invalid but for its line, and
// a conflicting fill in the same set builds plane 1. Once every plane is
// built, accesses hit, miss and evict without allocating.
func TestFirstFillBuildsStore(t *testing.T) {
	for _, write := range []bool{false, true} {
		// 8 sets of 2 ways: lines 512 B apart share a set.
		c := newCache(t, Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, Policy: WriteBackAllocate})
		if r := c.Access(0x40, write); r.Hit || !r.Fill || !r.Forward {
			t.Fatalf("first access (write=%v) = %+v, want miss+fill+forward", write, r)
		}
		if len(c.planes) != 1 || len(c.planes[0]) != 8 {
			t.Fatalf("%d planes after the first fill, want 1 of 8 sets", len(c.planes))
		}
		valid := 0
		for _, l := range c.planes[0] {
			if l.valid() {
				valid++
			}
		}
		if valid != 1 {
			t.Fatalf("%d valid lines after one fill, want 1", valid)
		}
		if r := c.Access(0x40, false); !r.Hit {
			t.Fatalf("re-read = %+v, want hit", r)
		}
		c.Access(0x80, false) // another set: way 0 is free there
		if len(c.planes) != 1 {
			t.Fatalf("%d planes after filling a second set, want 1", len(c.planes))
		}
		c.Access(0x40+512, false) // same set as 0x40: needs way 1
		if len(c.planes) != 2 || !c.Probe(0x40) || !c.Probe(0x40+512) {
			t.Fatalf("%d planes after a conflicting fill, want 2 holding both lines", len(c.planes))
		}
	}

	c := gpuL1(t)
	for w := 0; w < 4; w++ {
		c.Access(mem.Addr(w)<<13, false) // set 0, four tags
	}
	if len(c.planes) != 4 {
		t.Fatalf("%d planes after filling every way of a set, want 4", len(c.planes))
	}
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			c.Access(mem.Addr(rng.Intn(1<<20)), rng.Intn(4) == 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("accesses on a built store made %v allocations, want 0", allocs)
	}
}
