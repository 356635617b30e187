// Package cache implements the set-associative cache model used for GPU L1
// and L2 caches and the CPU cache hierarchy.
//
// Section III-D of the paper constrains the GPU caches under SKE: global
// memory uses a write-through, write-no-allocate policy in both L1 and L2
// (a write-back last-level cache would violate the relaxed consistency
// model across GPUs), and atomic operations first evict the line, then
// execute at the HMC logic layer. Both policies are supported here; the
// write-back mode exists for the CPU hierarchy and for the ablation
// benchmark of this design choice.
package cache

import (
	"fmt"
	"math/bits"

	"memnet/internal/mem"
	"memnet/internal/stats"
)

// WritePolicy selects how writes interact with the cache.
type WritePolicy int

// Write policies.
const (
	// WriteThroughNoAllocate forwards every write to the next level and
	// never allocates on a write miss (the SKE GPU policy).
	WriteThroughNoAllocate WritePolicy = iota
	// WriteBackAllocate marks lines dirty and writes back on eviction.
	WriteBackAllocate
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Policy    WritePolicy
}

// Stats counts cache events.
type Stats struct {
	ReadHits    stats.Counter
	ReadMisses  stats.Counter
	WriteHits   stats.Counter
	WriteMisses stats.Counter
	Evictions   stats.Counter
	WriteBacks  stats.Counter
	Invalidates stats.Counter
}

// HitRate returns hits / accesses over reads and writes.
func (s *Stats) HitRate() float64 {
	h := s.ReadHits.Value() + s.WriteHits.Value()
	total := h + s.ReadMisses.Value() + s.WriteMisses.Value()
	if total == 0 {
		return 0
	}
	return float64(h) / float64(total)
}

// ReadHitRate returns read hits / reads.
func (s *Stats) ReadHitRate() float64 {
	h := s.ReadHits.Value()
	total := h + s.ReadMisses.Value()
	if total == 0 {
		return 0
	}
	return float64(h) / float64(total)
}

// line is one cache line in 16 bytes. key is the line's tag shifted left
// one bit with the low bit set, and 0 while the line is invalid, so a
// zeroed line is invalid (tags never reach the top address bit). stamp is
// the cache tick of the line's last access shifted left one bit, with the
// dirty flag in the low bit. Every access takes a fresh tick, so ordering
// lines by stamp orders them by last use, as LRU needs.
type line struct {
	key   uint64
	stamp uint64
}

// lineKey returns the key of a valid line holding tag.
func lineKey(tag uint64) uint64 { return tag<<1 | 1 }

func (l *line) valid() bool { return l.key != 0 }
func (l *line) dirty() bool { return l.stamp&1 != 0 }
func (l *line) tag() uint64 { return l.key >> 1 }

// touch stamps the line with tick, keeping its dirty flag.
func (l *line) touch(tick uint64) { l.stamp = tick<<1 | l.stamp&1 }

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// Fill is true when the access allocates a line (read misses, and
	// write misses under write-allocate).
	Fill bool
	// WriteBack holds the address of a dirty line evicted by this access;
	// valid when HasWriteBack.
	WriteBack    mem.Addr
	HasWriteBack bool
	// Forward is true when the access must also be sent to the next
	// level (all misses; and every write under write-through).
	Forward bool
}

// Cache is a single-level set-associative cache with LRU replacement.
//
// Its lines live in per-way planes: planes[w][s] is way w of set s. A fill
// takes a set's first invalid way, so way w is needed only once ways 0 to
// w-1 of some set are valid, and the plane of way w is built then, by that
// fill. A cache therefore holds only as many ways as its fullest set has
// used, and one that is never filled holds none. An unbuilt plane is
// all-invalid, exactly like one built eagerly, so laziness changes no
// access, eviction or write-back. The planes hold no pointers, so the
// garbage collector never scans them.
type Cache struct {
	cfg      Config
	planes   [][]line // built in way order; nil until the first fill
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64

	Stats Stats
}

// New builds a cache; it returns an error on non-power-of-two geometry.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid config %+v", cfg)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines == 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible into %d ways", lines, cfg.Ways)
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: sets (%d) and line size (%d) must be powers of two", nsets, cfg.LineBytes)
	}
	return &Cache{
		cfg:      cfg,
		setMask:  uint64(nsets - 1),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr mem.Addr) (set uint64, tag uint64) {
	lineAddr := uint64(addr) >> c.lineBits
	return lineAddr & c.setMask, lineAddr >> c.setBits
}

// Access performs a read or write of the line containing addr.
func (c *Cache) Access(addr mem.Addr, write bool) Result {
	c.tick++
	set, tag := c.index(addr)
	key := lineKey(tag)
	for _, p := range c.planes {
		if l := &p[set]; l.key == key {
			l.touch(c.tick)
			if write {
				c.Stats.WriteHits.Inc()
				if c.cfg.Policy == WriteBackAllocate {
					l.stamp |= 1
					return Result{Hit: true}
				}
				// Write-through: update the line, forward the write.
				return Result{Hit: true, Forward: true}
			}
			c.Stats.ReadHits.Inc()
			return Result{Hit: true}
		}
	}
	// Miss.
	if write {
		c.Stats.WriteMisses.Inc()
		if c.cfg.Policy == WriteThroughNoAllocate {
			return Result{Forward: true}
		}
	} else {
		c.Stats.ReadMisses.Inc()
	}
	res := Result{Forward: true, Fill: true}
	v := c.victim(set)
	if v.valid() {
		c.Stats.Evictions.Inc()
		if v.dirty() {
			c.Stats.WriteBacks.Inc()
			res.HasWriteBack = true
			res.WriteBack = c.lineAddr(set, v.tag())
		}
	}
	*v = line{key: key, stamp: c.tick << 1}
	if write && c.cfg.Policy == WriteBackAllocate {
		v.stamp |= 1
	}
	return res
}

// Probe reports whether addr's line is resident, without changing state.
func (c *Cache) Probe(addr mem.Addr) bool {
	set, tag := c.index(addr)
	key := lineKey(tag)
	for _, p := range c.planes {
		if p[set].key == key {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present, returning a write-back address
// for dirty victims. Atomic operations use this (Section III-D: "all atomic
// operations that occur to a cache line in L1 or L2 first evicts the
// line").
func (c *Cache) Invalidate(addr mem.Addr) (wb mem.Addr, dirty bool) {
	set, tag := c.index(addr)
	key := lineKey(tag)
	for _, p := range c.planes {
		if l := &p[set]; l.key == key {
			c.Stats.Invalidates.Inc()
			dirty = l.dirty()
			if dirty {
				wb = c.lineAddr(set, tag)
			}
			*l = line{}
			return wb, dirty
		}
	}
	return 0, false
}

// Flush invalidates everything, returning dirty line addresses in set
// order, then way order.
func (c *Cache) Flush() []mem.Addr {
	var dirty []mem.Addr
	if c.planes != nil {
		for set := range c.planes[0] {
			for _, p := range c.planes {
				if l := &p[set]; l.valid() && l.dirty() {
					dirty = append(dirty, c.lineAddr(uint64(set), l.tag()))
				}
			}
		}
	}
	for _, p := range c.planes {
		clear(p)
	}
	return dirty
}

func (c *Cache) lineAddr(set, tag uint64) mem.Addr {
	return mem.Addr((tag<<c.setBits | set) << c.lineBits)
}

// victim returns the line a fill of set replaces: the set's first invalid
// way in way order, building that way's plane if it is the first unbuilt
// one, or else its least recently used way.
func (c *Cache) victim(set uint64) *line {
	var v *line
	oldest := ^uint64(0)
	for _, p := range c.planes {
		l := &p[set]
		if !l.valid() {
			return l
		}
		if l.stamp < oldest {
			v, oldest = l, l.stamp
		}
	}
	if w := len(c.planes); w < c.cfg.Ways {
		if c.planes == nil {
			c.planes = make([][]line, 0, c.cfg.Ways)
		}
		c.planes = append(c.planes, make([]line, c.setMask+1))
		return &c.planes[w][set]
	}
	return v
}
