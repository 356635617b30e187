// Package mem implements the memory address space organization of
// Section III-C of the paper: the RW:CLH:BK:CT:VL:LC:CLL:BY physical
// address mapping (Section VI-A), 4 KB pages with a random page placement
// policy, and a single unified virtual address space shared by the CPU and
// all GPUs (UVA).
//
// The field order, most-significant first, is
//
//	RW  - DRAM row
//	CLH - column high
//	BK  - bank
//	CT  - cluster ID (which GPU's / the CPU's local HMC group)
//	VL  - vault
//	LC  - local HMC ID within the cluster
//	CLL - column low
//	BY  - byte offset
//
// Because LC sits just above the cache-line offset (CLL:BY), consecutive
// cache lines interleave across the local HMCs of a cluster — the property
// Section V-A uses to justify removing intra-cluster channels in sFBFLY.
package mem

import (
	"fmt"
	"math/rand"
)

// Addr is a physical or virtual memory address in bytes.
type Addr uint64

// Config describes the physical memory organization.
type Config struct {
	LineBytes       int // cache line size interleaved across local HMCs (128 for GPUs)
	PageBytes       int // OS page size (4096)
	Clusters        int // number of HMC clusters (one per GPU, plus one for the CPU if present)
	LocalPerCluster int // HMCs per cluster (4)
	Vaults          int // vaults per HMC (16)
	Banks           int // banks per vault (16)
	RowBytes        int // DRAM row size per bank (determines column bits)
	RowsPerBank     int // rows per bank (bounds capacity)
}

// DefaultConfig returns the 4-cluster organization of Table I.
func DefaultConfig() Config {
	return Config{
		LineBytes:       128,
		PageBytes:       4096,
		Clusters:        4,
		LocalPerCluster: 4,
		Vaults:          16,
		Banks:           16,
		RowBytes:        2048,
		RowsPerBank:     1 << 14,
	}
}

// Loc identifies the physical resource an address maps to.
type Loc struct {
	Cluster int   // HMC cluster
	Local   int   // HMC within the cluster
	Vault   int   // vault within the HMC
	Bank    int   // bank within the vault
	Row     int64 // DRAM row
	Col     int64 // DRAM column (CLH:CLL)
}

// HMC returns the flat HMC index: Cluster*LocalPerCluster + Local.
func (l Loc) HMC(localPerCluster int) int { return l.Cluster*localPerCluster + l.Local }

type field struct {
	shift uint
	bits  uint
}

func (f field) get(a Addr) uint64 { return (uint64(a) >> f.shift) & (1<<f.bits - 1) }
func (f field) put(v uint64) Addr { return Addr((v & (1<<f.bits - 1)) << f.shift) }

// Mapping is a compiled RW:CLH:BK:CT:VL:LC:CLL:BY address decoder.
type Mapping struct {
	cfg Config
	// LSB-first field layout.
	by, cll, lc, vl, ct, bk, clh, rw field
	pageBits                         uint
	totalBits                        uint
}

func log2(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// NewMapping compiles the address layout for cfg. It returns an error if
// any structural parameter is not a power of two or is non-positive.
func NewMapping(cfg Config) (*Mapping, error) {
	check := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("mem: %s = %d must be a positive power of two", name, v)
		}
		return nil
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"LineBytes", cfg.LineBytes}, {"PageBytes", cfg.PageBytes},
		{"Clusters", cfg.Clusters}, {"LocalPerCluster", cfg.LocalPerCluster},
		{"Vaults", cfg.Vaults}, {"Banks", cfg.Banks},
		{"RowBytes", cfg.RowBytes}, {"RowsPerBank", cfg.RowsPerBank},
	} {
		if err := check(p.name, p.v); err != nil {
			return nil, err
		}
	}
	if cfg.RowBytes < cfg.LineBytes {
		return nil, fmt.Errorf("mem: RowBytes %d smaller than LineBytes %d", cfg.RowBytes, cfg.LineBytes)
	}
	m := &Mapping{cfg: cfg}
	lineBits := log2(cfg.LineBytes)
	colBits := log2(cfg.RowBytes) - lineBits // column bits select a line within a row
	// Split column bits: CLL below LC keeps a line contiguous; remaining
	// column bits go to CLH above the cluster field.
	byBits := lineBits / 2
	cllBits := lineBits - byBits
	pos := uint(0)
	place := func(bits uint) field {
		f := field{shift: pos, bits: bits}
		pos += bits
		return f
	}
	m.by = place(byBits)
	m.cll = place(cllBits)
	m.lc = place(log2(cfg.LocalPerCluster))
	m.vl = place(log2(cfg.Vaults))
	m.ct = place(log2(cfg.Clusters))
	m.bk = place(log2(cfg.Banks))
	m.clh = place(colBits)
	m.rw = place(log2(cfg.RowsPerBank))
	m.totalBits = pos
	m.pageBits = log2(cfg.PageBytes)
	return m, nil
}

// Config returns the configuration the mapping was built from.
func (m *Mapping) Config() Config { return m.cfg }

// PageBytes returns the page size.
func (m *Mapping) PageBytes() int { return m.cfg.PageBytes }

// LineBytes returns the cache-line interleave granularity.
func (m *Mapping) LineBytes() int { return m.cfg.LineBytes }

// Decode splits a physical address into its resource location.
func (m *Mapping) Decode(a Addr) Loc {
	return Loc{
		Cluster: int(m.ct.get(a)),
		Local:   int(m.lc.get(a)),
		Vault:   int(m.vl.get(a)),
		Bank:    int(m.bk.get(a)),
		Row:     int64(m.rw.get(a)),
		Col:     int64(m.clh.get(a)<<m.cll.bits | m.cll.get(a)),
	}
}

// Encode builds a physical address from a location and byte offset.
// It is the inverse of Decode for in-range values.
func (m *Mapping) Encode(l Loc, byteOff uint64) Addr {
	var a Addr
	a |= m.by.put(byteOff)
	a |= m.cll.put(uint64(l.Col))
	a |= m.clh.put(uint64(l.Col) >> m.cll.bits)
	a |= m.lc.put(uint64(l.Local))
	a |= m.vl.put(uint64(l.Vault))
	a |= m.ct.put(uint64(l.Cluster))
	a |= m.bk.put(uint64(l.Bank))
	a |= m.rw.put(uint64(l.Row))
	return a
}

// ComposeFrame returns the physical base address of the i-th page frame of
// a cluster. Frame bits are packed into every address bit above the page
// offset except the cluster field, low bits first, so consecutive frames
// within a cluster spread across vaults, banks and rows.
func (m *Mapping) ComposeFrame(cluster int, i uint64) Addr {
	var a Addr
	a |= m.ct.put(uint64(cluster))
	for pos := m.pageBits; pos < m.totalBits; pos++ {
		if pos >= m.ct.shift && pos < m.ct.shift+m.ct.bits {
			continue // cluster bits are fixed
		}
		if i&1 != 0 {
			a |= 1 << pos
		}
		i >>= 1
	}
	return a
}

// FramesPerCluster returns how many distinct frames ComposeFrame can
// produce per cluster before wrapping.
func (m *Mapping) FramesPerCluster() uint64 {
	bits := m.totalBits - m.pageBits - m.ct.bits
	return 1 << bits
}

// Placement selects the cluster for each allocated page.
type Placement interface {
	// NextCluster returns the cluster for the next page of an allocation.
	NextCluster() int
}

// PlaceLocal places every page in a single cluster.
type PlaceLocal struct{ Cluster int }

// NextCluster implements Placement.
func (p PlaceLocal) NextCluster() int { return p.Cluster }

// PlaceRoundRobin cycles pages across a cluster set.
type PlaceRoundRobin struct {
	Clusters []int
	next     int
}

// NextCluster implements Placement.
func (p *PlaceRoundRobin) NextCluster() int {
	c := p.Clusters[p.next%len(p.Clusters)]
	p.next++
	return c
}

// PlaceProportional maps an allocation's pages onto clusters in proportion
// to their order: page i of n goes to Clusters[i*len(Clusters)/n]. Combined
// with SKE's static chunked CTA assignment — where GPU g executes the g-th
// contiguous chunk of CTAs, which stream the g-th contiguous region of each
// buffer — this is an "owner-compute" placement that maximizes local-HMC
// accesses. It addresses the open question of Section III-C ("it remains to
// be seen how to optimize memory mapping to increase locality").
type PlaceProportional struct {
	Clusters   []int
	TotalPages uint64
	next       uint64
}

// NextCluster implements Placement.
func (p *PlaceProportional) NextCluster() int {
	i := p.next
	p.next++
	if p.TotalPages == 0 {
		return p.Clusters[0]
	}
	idx := int(i * uint64(len(p.Clusters)) / p.TotalPages)
	if idx >= len(p.Clusters) {
		idx = len(p.Clusters) - 1
	}
	return p.Clusters[idx]
}

// PlaceRandom picks a uniformly random cluster per page (the paper's random
// page placement policy), deterministic for a given seed.
type PlaceRandom struct {
	Clusters []int
	rng      *rand.Rand
}

// NewPlaceRandom returns a random placement over clusters with a fixed seed.
func NewPlaceRandom(clusters []int, seed int64) *PlaceRandom {
	return &PlaceRandom{Clusters: clusters, rng: rand.New(rand.NewSource(seed))}
}

// NextCluster implements Placement.
func (p *PlaceRandom) NextCluster() int {
	return p.Clusters[p.rng.Intn(len(p.Clusters))]
}

// Buffer is an allocated virtual-address range.
type Buffer struct {
	Name string
	Base Addr
	Size uint64
}

// Contains reports whether va falls inside the buffer.
func (b Buffer) Contains(va Addr) bool {
	return va >= b.Base && va < b.Base+Addr(b.Size)
}

// Space is a unified virtual address space with a page table shared by the
// CPU and all GPUs (the UVA model of Section III-C).
type Space struct {
	m          *Mapping
	nextVA     Addr
	pages      map[Addr]Addr // vpage base -> frame base
	frameNext  []uint64      // per-cluster frame bump allocator
	buffers    []Buffer
	allocFault error
}

// NewSpace returns an empty address space over mapping m.
func NewSpace(m *Mapping) *Space {
	return &Space{
		m:         m,
		nextVA:    Addr(m.cfg.PageBytes), // keep page 0 unmapped
		pages:     make(map[Addr]Addr),
		frameNext: make([]uint64, m.cfg.Clusters),
	}
}

// Mapping returns the physical mapping of the space.
func (s *Space) Mapping() *Mapping { return s.m }

// Buffers returns all allocations made so far.
func (s *Space) Buffers() []Buffer { return s.buffers }

// Alloc reserves size bytes of virtual address space, backs every page with
// a physical frame chosen by the placement policy, and returns the buffer.
func (s *Space) Alloc(name string, size uint64, place Placement) (Buffer, error) {
	if size == 0 {
		return Buffer{}, fmt.Errorf("mem: zero-size allocation %q", name)
	}
	pb := uint64(s.m.cfg.PageBytes)
	npages := (size + pb - 1) / pb
	base := s.nextVA
	for p := uint64(0); p < npages; p++ {
		cluster := place.NextCluster()
		if cluster < 0 || cluster >= s.m.cfg.Clusters {
			return Buffer{}, fmt.Errorf("mem: placement chose cluster %d of %d", cluster, s.m.cfg.Clusters)
		}
		if s.frameNext[cluster] >= s.m.FramesPerCluster() {
			return Buffer{}, fmt.Errorf("mem: cluster %d out of frames", cluster)
		}
		frame := s.m.ComposeFrame(cluster, s.frameNext[cluster])
		s.frameNext[cluster]++
		s.pages[base+Addr(p*pb)] = frame
	}
	s.nextVA = base + Addr(npages*pb)
	buf := Buffer{Name: name, Base: base, Size: size}
	s.buffers = append(s.buffers, buf)
	return buf, nil
}

// Translate converts a virtual address to a physical address.
func (s *Space) Translate(va Addr) (Addr, bool) {
	pb := Addr(s.m.cfg.PageBytes)
	frame, ok := s.pages[va&^(pb-1)]
	if !ok {
		return 0, false
	}
	return frame | (va & (pb - 1)), true
}

// LocOf translates va and decodes its physical location. It panics on an
// unmapped address: workloads only touch buffers they allocated, so an
// unmapped access is a simulator bug.
func (s *Space) LocOf(va Addr) Loc {
	pa, ok := s.Translate(va)
	if !ok {
		panic(fmt.Sprintf("mem: access to unmapped address %#x", uint64(va)))
	}
	return s.m.Decode(pa)
}

// LineAlign rounds va down to its cache-line base.
func (s *Space) LineAlign(va Addr) Addr {
	lb := Addr(s.m.cfg.LineBytes)
	return va &^ (lb - 1)
}
