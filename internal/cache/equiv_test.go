package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"memnet/internal/mem"
)

// eagerCache is the reference the planes are checked against: every line
// of every set in one set-major array built up front (set s holds
// lines[s*ways : (s+1)*ways]), the victim its set's first invalid way,
// then its least recently used one.
type eagerCache struct {
	cfg               Config
	lines             []line
	setMask           uint64
	setBits, lineBits uint
	tick              uint64

	// The counters of Stats, in its field order.
	readHits, readMisses, writeHits, writeMisses int64
	evictions, writeBacks, invalidates           int64
}

func newEager(cfg Config) *eagerCache {
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	e := &eagerCache{cfg: cfg, lines: make([]line, nsets*cfg.Ways), setMask: uint64(nsets - 1)}
	for 1<<e.setBits < nsets {
		e.setBits++
	}
	for 1<<e.lineBits < cfg.LineBytes {
		e.lineBits++
	}
	return e
}

func (e *eagerCache) set(addr mem.Addr) (uint64, uint64, []line) {
	la := uint64(addr) >> e.lineBits
	s := la & e.setMask
	return s, la >> e.setBits, e.lines[int(s)*e.cfg.Ways : int(s+1)*e.cfg.Ways]
}

func (e *eagerCache) addr(set, tag uint64) mem.Addr {
	return mem.Addr((tag<<e.setBits | set) << e.lineBits)
}

func (e *eagerCache) access(addr mem.Addr, write bool) Result {
	e.tick++
	set, tag, ways := e.set(addr)
	wb := e.cfg.Policy == WriteBackAllocate
	for i := range ways {
		if l := &ways[i]; l.key == lineKey(tag) {
			l.touch(e.tick)
			if !write {
				e.readHits++
				return Result{Hit: true}
			}
			e.writeHits++
			if wb {
				l.stamp |= 1
				return Result{Hit: true}
			}
			return Result{Hit: true, Forward: true}
		}
	}
	if write {
		e.writeMisses++
		if !wb {
			return Result{Forward: true}
		}
	} else {
		e.readMisses++
	}
	v, oldest := 0, ^uint64(0)
	for i := range ways {
		if !ways[i].valid() {
			v = i
			break
		}
		if ways[i].stamp < oldest {
			v, oldest = i, ways[i].stamp
		}
	}
	res := Result{Forward: true, Fill: true}
	if l := &ways[v]; l.valid() {
		e.evictions++
		if l.dirty() {
			e.writeBacks++
			res.HasWriteBack, res.WriteBack = true, e.addr(set, l.tag())
		}
	}
	ways[v] = line{key: lineKey(tag), stamp: e.tick << 1}
	if write && wb {
		ways[v].stamp |= 1
	}
	return res
}

func (e *eagerCache) probe(addr mem.Addr) bool {
	_, tag, ways := e.set(addr)
	return slices.ContainsFunc(ways, func(l line) bool { return l.key == lineKey(tag) })
}

func (e *eagerCache) invalidate(addr mem.Addr) (mem.Addr, bool) {
	set, tag, ways := e.set(addr)
	for i := range ways {
		if ways[i].key == lineKey(tag) {
			e.invalidates++
			dirty := ways[i].dirty()
			ways[i] = line{}
			if dirty {
				return e.addr(set, tag), true
			}
			return 0, false
		}
	}
	return 0, false
}

func (e *eagerCache) flush() []mem.Addr {
	var dirty []mem.Addr
	for i, l := range e.lines {
		if l.valid() && l.dirty() {
			dirty = append(dirty, e.addr(uint64(i/e.cfg.Ways), l.tag()))
		}
	}
	clear(e.lines)
	return dirty
}

func (e *eagerCache) stats() [7]int64 {
	return [7]int64{e.readHits, e.readMisses, e.writeHits, e.writeMisses, e.evictions, e.writeBacks, e.invalidates}
}

func planeStats(c *Cache) [7]int64 {
	s := &c.Stats
	return [7]int64{s.ReadHits.Value(), s.ReadMisses.Value(), s.WriteHits.Value(),
		s.WriteMisses.Value(), s.Evictions.Value(), s.WriteBacks.Value(), s.Invalidates.Value()}
}

// TestPlanesMatchEagerStore runs seeded streams of accesses,
// invalidations, probes and rare flushes on the GPU L1, GPU L2 and host L2
// geometries under both write policies, and checks every result, the
// statistics and each flush's write-back order against the eager
// set-major reference. Addresses crowd a few sets with more tags than
// ways, so fills build every plane and evict, while a spread of other sets
// keeps most sets short of full.
func TestPlanesMatchEagerStore(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 4}, // GPU L1
		{SizeBytes: 2 << 20, LineBytes: 128, Ways: 16}, // GPU L2
		{SizeBytes: 16 << 20, LineBytes: 64, Ways: 16}, // host L2
	}
	for gi, g := range geoms {
		for _, pol := range []WritePolicy{WriteThroughNoAllocate, WriteBackAllocate} {
			cfg := g
			cfg.Policy = pol
			t.Run(fmt.Sprintf("geom%d/policy%d", gi, pol), func(t *testing.T) {
				c, ref := newCache(t, cfg), newEager(cfg)
				rng := rand.New(rand.NewSource(int64(gi*2) + int64(pol) + 1))
				hot := make([]uint64, 8)
				for i := range hot {
					hot[i] = uint64(rng.Int63()) & ref.setMask
				}
				addr := func() mem.Addr {
					set := uint64(rng.Int63()) & ref.setMask
					tag := uint64(rng.Intn(1 << 20))
					if rng.Intn(4) != 0 {
						set, tag = hot[rng.Intn(len(hot))], uint64(rng.Intn(3*cfg.Ways))
					}
					return ref.addr(set, tag) + mem.Addr(rng.Intn(cfg.LineBytes))
				}
				for op := 0; op < 20000; op++ {
					a := addr()
					switch k := rng.Intn(1000); {
					case k < 1:
						if got, want := c.Flush(), ref.flush(); !slices.Equal(got, want) {
							t.Fatalf("op %d: Flush = %v, want %v", op, got, want)
						}
					case k < 60:
						gw, gd := c.Invalidate(a)
						ww, wd := ref.invalidate(a)
						if gw != ww || gd != wd {
							t.Fatalf("op %d: Invalidate(%#x) = (%#x, %v), want (%#x, %v)",
								op, uint64(a), uint64(gw), gd, uint64(ww), wd)
						}
					case k < 200:
						if got, want := c.Probe(a), ref.probe(a); got != want {
							t.Fatalf("op %d: Probe(%#x) = %v, want %v", op, uint64(a), got, want)
						}
					default:
						write := rng.Intn(3) == 0
						if got, want := c.Access(a, write), ref.access(a, write); got != want {
							t.Fatalf("op %d: Access(%#x, %v) = %+v, want %+v", op, uint64(a), write, got, want)
						}
					}
				}
				if got, want := planeStats(c), ref.stats(); got != want {
					t.Fatalf("stats = %v, want %v", got, want)
				}
				if got, want := c.Flush(), ref.flush(); !slices.Equal(got, want) {
					t.Fatalf("final Flush = %v, want %v", got, want)
				}
				if len(c.planes) != cfg.Ways {
					t.Fatalf("%d planes built, want all %d: the stream never filled a set", len(c.planes), cfg.Ways)
				}
			})
		}
	}
}
