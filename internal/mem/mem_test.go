package mem

import (
	"testing"
	"testing/quick"
)

func mustMapping(t *testing.T, cfg Config) *Mapping {
	t.Helper()
	m, err := NewMapping(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMappingRejectsNonPowerOfTwo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 3
	if _, err := NewMapping(cfg); err == nil {
		t.Fatal("expected error for Clusters=3")
	}
	cfg = DefaultConfig()
	cfg.LineBytes = 0
	if _, err := NewMapping(cfg); err == nil {
		t.Fatal("expected error for LineBytes=0")
	}
	cfg = DefaultConfig()
	cfg.RowBytes = 64 // smaller than line
	if _, err := NewMapping(cfg); err == nil {
		t.Fatal("expected error for RowBytes < LineBytes")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	locs := []Loc{
		{},
		{Cluster: 3, Local: 2, Vault: 15, Bank: 7, Row: 100, Col: 9},
		{Cluster: 1, Local: 3, Vault: 0, Bank: 15, Row: (1 << 14) - 1, Col: 15},
	}
	for _, l := range locs {
		a := m.Encode(l, 5)
		got := m.Decode(a)
		if got != l {
			t.Fatalf("Decode(Encode(%+v)) = %+v", l, got)
		}
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	f := func(cl, lo, vl, bk uint8, row uint16, col uint8) bool {
		l := Loc{
			Cluster: int(cl % 4), Local: int(lo % 4), Vault: int(vl % 16),
			Bank: int(bk % 16), Row: int64(row % (1 << 14)), Col: int64(col % 16),
		}
		return m.Decode(m.Encode(l, 0)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsecutiveLinesInterleaveAcrossLocalHMCs(t *testing.T) {
	// The property that justifies sFBFLY (Section V-A): within a page,
	// consecutive cache lines map to different local HMCs of one cluster.
	m := mustMapping(t, DefaultConfig())
	s := NewSpace(m)
	buf, err := s.Alloc("x", 4096, PlaceLocal{Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < 8; i++ {
		loc := s.LocOf(buf.Base + Addr(i*128))
		if loc.Cluster != 2 {
			t.Fatalf("line %d in cluster %d, want 2", i, loc.Cluster)
		}
		seen[loc.Local]++
	}
	if len(seen) != 4 {
		t.Fatalf("8 consecutive lines hit %d local HMCs, want all 4", len(seen))
	}
	for local, n := range seen {
		if n != 2 {
			t.Fatalf("local HMC %d got %d of 8 lines, want 2 (balanced)", local, n)
		}
	}
}

func TestPageStaysInOneCluster(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	s := NewSpace(m)
	buf, err := s.Alloc("x", 64*4096, &PlaceRoundRobin{Clusters: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 64; p++ {
		base := buf.Base + Addr(p*4096)
		c0 := s.LocOf(base).Cluster
		if want := p % 4; c0 != want {
			t.Fatalf("page %d in cluster %d, want %d (round robin)", p, c0, want)
		}
		for off := 0; off < 4096; off += 128 {
			if c := s.LocOf(base + Addr(off)).Cluster; c != c0 {
				t.Fatalf("page %d spans clusters %d and %d", p, c0, c)
			}
		}
	}
}

func TestPlaceRandomCoversAllClustersDeterministically(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	s1 := NewSpace(m)
	s2 := NewSpace(m)
	b1, _ := s1.Alloc("x", 256*4096, NewPlaceRandom([]int{0, 1, 2, 3}, 42))
	b2, _ := s2.Alloc("x", 256*4096, NewPlaceRandom([]int{0, 1, 2, 3}, 42))
	seen := make(map[int]int)
	for p := 0; p < 256; p++ {
		c1 := s1.LocOf(b1.Base + Addr(p*4096)).Cluster
		c2 := s2.LocOf(b2.Base + Addr(p*4096)).Cluster
		if c1 != c2 {
			t.Fatal("random placement not deterministic for equal seeds")
		}
		seen[c1]++
	}
	if len(seen) != 4 {
		t.Fatalf("random placement hit %d clusters, want 4", len(seen))
	}
	for c, n := range seen {
		if n < 256/4/3 {
			t.Fatalf("cluster %d got only %d of 256 pages; placement badly skewed", c, n)
		}
	}
}

func TestTranslateUnmapped(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	s := NewSpace(m)
	if _, ok := s.Translate(0); ok {
		t.Fatal("page 0 should be unmapped")
	}
	if _, ok := s.Translate(1 << 40); ok {
		t.Fatal("wild address should be unmapped")
	}
}

func TestLocOfPanicsOnUnmapped(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	s := NewSpace(m)
	defer func() {
		if recover() == nil {
			t.Fatal("LocOf on unmapped address did not panic")
		}
	}()
	s.LocOf(0x100000)
}

func TestAllocZeroSizeFails(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	s := NewSpace(m)
	if _, err := s.Alloc("x", 0, PlaceLocal{}); err == nil {
		t.Fatal("zero-size alloc should fail")
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	s := NewSpace(m)
	a, _ := s.Alloc("a", 10000, PlaceLocal{Cluster: 0})
	b, _ := s.Alloc("b", 10000, PlaceLocal{Cluster: 1})
	if a.Base+Addr(a.Size) > b.Base && b.Base+Addr(b.Size) > a.Base {
		t.Fatalf("buffers overlap: %+v %+v", a, b)
	}
	// Distinct physical frames too.
	pa, _ := s.Translate(a.Base)
	pb, _ := s.Translate(b.Base)
	if pa == pb {
		t.Fatal("two allocations share a physical frame")
	}
}

func TestDistinctFramesWithinCluster(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	s := NewSpace(m)
	buf, _ := s.Alloc("x", 512*4096, PlaceLocal{Cluster: 1})
	seen := make(map[Addr]bool)
	for p := 0; p < 512; p++ {
		pa, ok := s.Translate(buf.Base + Addr(p*4096))
		if !ok {
			t.Fatalf("page %d unmapped", p)
		}
		if seen[pa] {
			t.Fatalf("frame %#x reused", uint64(pa))
		}
		seen[pa] = true
		if m.Decode(pa).Cluster != 1 {
			t.Fatalf("frame in wrong cluster")
		}
	}
}

func TestHMCFlatIndex(t *testing.T) {
	l := Loc{Cluster: 2, Local: 3}
	if l.HMC(4) != 11 {
		t.Fatalf("HMC index = %d, want 11", l.HMC(4))
	}
}

func TestLineAlign(t *testing.T) {
	m := mustMapping(t, DefaultConfig())
	s := NewSpace(m)
	if got := s.LineAlign(Addr(1000)); got != 896 {
		t.Fatalf("LineAlign(1000) = %d, want 896", got)
	}
}

func TestBufferContains(t *testing.T) {
	b := Buffer{Base: 100, Size: 50}
	if !b.Contains(100) || !b.Contains(149) || b.Contains(150) || b.Contains(99) {
		t.Fatal("Buffer.Contains boundary behavior wrong")
	}
}

func TestEightClusterMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 8
	m := mustMapping(t, cfg)
	l := Loc{Cluster: 7, Local: 1, Vault: 9, Bank: 3, Row: 55, Col: 2}
	if got := m.Decode(m.Encode(l, 0)); got != l {
		t.Fatalf("8-cluster round trip failed: %+v", got)
	}
}

func TestPlaceProportional(t *testing.T) {
	p := &PlaceProportional{Clusters: []int{0, 1, 2, 3}, TotalPages: 8}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, p.NextCluster())
	}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("proportional placement = %v, want %v", got, want)
		}
	}
	// Overrun clamps to the last cluster.
	if c := p.NextCluster(); c != 3 {
		t.Fatalf("overflow page in cluster %d, want 3", c)
	}
}

func TestPlaceProportionalZeroPages(t *testing.T) {
	p := &PlaceProportional{Clusters: []int{2}, TotalPages: 0}
	if c := p.NextCluster(); c != 2 {
		t.Fatalf("zero-page placement = %d, want 2", c)
	}
}
