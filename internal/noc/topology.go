package noc

import (
	"fmt"

	"memnet/internal/sim"
)

// TopoKind enumerates the memory-network topologies of Section V and
// Fig. 11 of the paper.
type TopoKind int

// Topology kinds.
const (
	// TopoStar has no router-to-router channels: each endpoint is
	// directly connected to its local HMCs only (the conventional
	// multi-GPU baseline, where remote traffic goes over PCIe).
	TopoStar TopoKind = iota
	// TopoSFBFLY is the proposed sliced flattened butterfly: each slice
	// (the i-th local HMC of every cluster) is a flattened butterfly;
	// there are no intra-cluster channels (Fig. 11d).
	TopoSFBFLY
	// TopoDFBFLY is the distributor-based flattened butterfly:
	// sFBFLY slices plus fully connected intra-cluster channels
	// (Fig. 11c).
	TopoDFBFLY
	// TopoDDFLY is the distributor-based dragonfly: fully connected
	// intra-cluster channels plus one global channel per cluster pair
	// (Fig. 11a).
	TopoDDFLY
	// TopoSMESH is a sliced topology whose slices are 2D meshes.
	TopoSMESH
	// TopoSTORUS is a sliced topology whose slices are 2D tori.
	TopoSTORUS
	// TopoRing connects all HMC routers in a single ring (Fig. 9b's
	// illustrative topology); included for tests and comparisons.
	TopoRing
)

var topoNames = map[TopoKind]string{
	TopoStar: "star", TopoSFBFLY: "sFBFLY", TopoDFBFLY: "dFBFLY",
	TopoDDFLY: "dDFLY", TopoSMESH: "sMESH", TopoSTORUS: "sTORUS",
	TopoRing: "ring",
}

func (k TopoKind) String() string {
	if s, ok := topoNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TopoKind(%d)", int(k))
}

// ParseTopo converts a topology name to its kind.
func ParseTopo(s string) (TopoKind, error) {
	for k, name := range topoNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("noc: unknown topology %q", s)
}

// TopoSpec describes a memory-network instance to build.
type TopoSpec struct {
	Kind            TopoKind
	Clusters        int // endpoint clusters (one per GPU, plus the CPU's)
	LocalPerCluster int // HMCs per cluster (4)
	TermChannels    int // channels per terminal, spread over its local HMCs (8)
	Multiplier      int // router-channel duplication factor (2 = the "-2x" variants); 0/1 = single
	// SlicedClusters limits inter-cluster (slice) connectivity to the
	// first N clusters; the rest stay pure stars (e.g. the CPU cluster in
	// a GMN system, Fig. 8b). 0 means all clusters participate.
	SlicedClusters int
	// Overlay adds serial CPU pass-through chains through every slice
	// (Section V-C). Requires CPUCluster >= 0.
	Overlay    bool
	CPUCluster int // cluster owned by the latency-sensitive CPU; -1 if none
}

// slicedClusters returns the number of clusters joined by slices.
func (s TopoSpec) slicedClusters() int {
	if s.SlicedClusters > 0 {
		return s.SlicedClusters
	}
	return s.Clusters
}

// Built is a constructed network plus its cluster structure.
type Built struct {
	Net  *Network
	Spec TopoSpec
	// Terms[c] is the terminal ID of cluster c's endpoint.
	Terms []int
	// Routers[c][l] is the router ID of local HMC l in cluster c.
	Routers [][]int
	// chanIdx[a][b] lists indices of directed channels a->b.
	chanIdx map[[2]int][]int
}

// RouterID returns the router for (cluster, local).
func (b *Built) RouterID(cluster, local int) int {
	return b.Routers[cluster][local]
}

// BuildTopology constructs the network for spec on engine eng.
func BuildTopology(eng *sim.Engine, cfg Config, spec TopoSpec) (*Built, error) {
	if spec.Clusters <= 0 || spec.LocalPerCluster <= 0 {
		return nil, fmt.Errorf("noc: invalid spec %+v", spec)
	}
	if spec.TermChannels%spec.LocalPerCluster != 0 {
		return nil, fmt.Errorf("noc: %d terminal channels not divisible over %d local HMCs",
			spec.TermChannels, spec.LocalPerCluster)
	}
	if spec.Multiplier <= 0 {
		spec.Multiplier = 1
	}
	if spec.Overlay && spec.CPUCluster < 0 {
		return nil, fmt.Errorf("noc: overlay requires a CPU cluster")
	}
	n := New(eng, cfg)
	b := &Built{Net: n, Spec: spec, chanIdx: make(map[[2]int][]int)}

	for c := 0; c < spec.Clusters; c++ {
		row := make([]int, spec.LocalPerCluster)
		for l := 0; l < spec.LocalPerCluster; l++ {
			row[l] = n.AddRouter()
		}
		b.Routers = append(b.Routers, row)
	}
	for c := 0; c < spec.Clusters; c++ {
		t := n.AddTerminal(fmt.Sprintf("node%d", c))
		b.Terms = append(b.Terms, t)
		per := spec.TermChannels / spec.LocalPerCluster
		for l := 0; l < spec.LocalPerCluster; l++ {
			n.Attach(t, b.Routers[c][l], per)
		}
	}

	connect := func(a, r int) {
		for i := 0; i < spec.Multiplier; i++ {
			fwd := n.Connect(a, r, ChannelOpts{})
			b.chanIdx[[2]int{a, r}] = append(b.chanIdx[[2]int{a, r}], fwd)
			b.chanIdx[[2]int{r, a}] = append(b.chanIdx[[2]int{r, a}], fwd+1)
		}
	}

	switch spec.Kind {
	case TopoStar:
		// no router-router channels
	case TopoRing:
		total := spec.Clusters * spec.LocalPerCluster
		for i := 0; i < total; i++ {
			connect(i, (i+1)%total)
		}
	case TopoSFBFLY, TopoSMESH, TopoSTORUS:
		b.buildSlices(connect, spec.Kind)
	case TopoDFBFLY:
		b.buildSlices(connect, TopoSFBFLY)
		b.buildIntraClusterCliques(connect)
	case TopoDDFLY:
		b.buildIntraClusterCliques(connect)
		b.buildGlobalChannels(connect)
	default:
		return nil, fmt.Errorf("noc: unsupported topology %v", spec.Kind)
	}

	if err := n.Finalize(); err != nil {
		return nil, err
	}
	if spec.Overlay {
		if err := b.buildOverlay(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// sliceGrid returns the 2D grid dimensions for a slice of c nodes:
// width min(c, 4) to mirror the paper's configurations (4 clusters: a
// fully connected 1x4 slice; 16 clusters: 4x4 2D FBFLY per slice).
func sliceGrid(c int) (rows, cols int) {
	cols = c
	if cols > 4 {
		cols = 4
	}
	if c%cols != 0 {
		cols = 1 // fall back to a 1D slice for odd cluster counts
	}
	return c / cols, cols
}

// buildSlices connects slice l (the l-th local HMC of every participating
// cluster) as a 2D flattened butterfly, mesh or torus over the slice grid.
func (b *Built) buildSlices(connect func(a, r int), kind TopoKind) {
	c := b.Spec.slicedClusters()
	rows, cols := sliceGrid(c)
	for l := 0; l < b.Spec.LocalPerCluster; l++ {
		node := func(row, col int) int { return b.Routers[row*cols+col][l] }
		switch kind {
		case TopoSFBFLY:
			// Fully connect every row and every column.
			for r := 0; r < rows; r++ {
				for c1 := 0; c1 < cols; c1++ {
					for c2 := c1 + 1; c2 < cols; c2++ {
						connect(node(r, c1), node(r, c2))
					}
				}
			}
			for col := 0; col < cols; col++ {
				for r1 := 0; r1 < rows; r1++ {
					for r2 := r1 + 1; r2 < rows; r2++ {
						connect(node(r1, col), node(r2, col))
					}
				}
			}
		case TopoSMESH, TopoSTORUS:
			for r := 0; r < rows; r++ {
				for col := 0; col+1 < cols; col++ {
					connect(node(r, col), node(r, col+1))
				}
				if kind == TopoSTORUS && cols > 2 {
					connect(node(r, cols-1), node(r, 0))
				}
			}
			for col := 0; col < cols; col++ {
				for r := 0; r+1 < rows; r++ {
					connect(node(r, col), node(r+1, col))
				}
				if kind == TopoSTORUS && rows > 2 {
					connect(node(rows-1, col), node(0, col))
				}
			}
		}
	}
}

// buildIntraClusterCliques fully connects the local HMCs of each cluster
// (the channels sFBFLY removes; Fig. 11c/d dotted boxes).
func (b *Built) buildIntraClusterCliques(connect func(a, r int)) {
	for c := 0; c < b.Spec.slicedClusters(); c++ {
		for i := 0; i < b.Spec.LocalPerCluster; i++ {
			for j := i + 1; j < b.Spec.LocalPerCluster; j++ {
				connect(b.Routers[c][i], b.Routers[c][j])
			}
		}
	}
}

// buildGlobalChannels adds one channel per cluster pair for the dragonfly,
// spread across local HMCs.
func (b *Built) buildGlobalChannels(connect func(a, r int)) {
	l := b.Spec.LocalPerCluster
	n := b.Spec.slicedClusters()
	for c1 := 0; c1 < n; c1++ {
		for c2 := c1 + 1; c2 < n; c2++ {
			connect(b.Routers[c1][c2%l], b.Routers[c2][c1%l])
		}
	}
}

// buildOverlay designates per-slice serial pass-through chains for the CPU
// (Fig. 13): within slice l, CPU request packets enter at the CPU's local
// HMC and are forwarded in snake order through every other cluster's HMC
// with pass-through latency; the reverse chain carries responses back and
// ends on the CPU's terminal link.
func (b *Built) buildOverlay() error {
	cpu := b.Spec.CPUCluster
	rows, cols := sliceGrid(b.Spec.slicedClusters())
	// Snake order over the slice grid starting at the CPU's cluster.
	order := make([]int, 0, b.Spec.Clusters)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			col := c
			if r%2 == 1 {
				col = cols - 1 - c
			}
			cl := r*cols + col
			if cl != cpu {
				order = append(order, cl)
			}
		}
	}
	order = append([]int{cpu}, order...)
	cpuTerm := b.Net.terminals[b.Terms[cpu]]
	for l := 0; l < b.Spec.LocalPerCluster; l++ {
		var fwd, rev []int
		// The forward chain begins on the CPU's injection channel into
		// its slice-l local HMC, so requests bypass that router's
		// pipeline too.
		for _, p := range cpuTerm.ports {
			if p.router == b.Routers[cpu][l] {
				fwd = append(fwd, p.toRouter.index)
				break
			}
		}
		ok := true
		for i := 0; i+1 < len(order); i++ {
			a := b.Routers[order[i]][l]
			r := b.Routers[order[i+1]][l]
			fa := b.chanIdx[[2]int{a, r}]
			fr := b.chanIdx[[2]int{r, a}]
			if len(fa) == 0 || len(fr) == 0 {
				ok = false
				break
			}
			fwd = append(fwd, fa[0])
			rev = append([]int{fr[0]}, rev...)
		}
		if !ok {
			return fmt.Errorf("noc: overlay chain needs adjacent slice channels (slice %d)", l)
		}
		b.Net.DesignatePassChain(fwd)
		// The reverse chain ends on the CPU terminal's receive channel.
		for _, p := range cpuTerm.ports {
			if p.router == b.Routers[cpu][l] {
				rev = append(rev, p.fromRouter.index)
				break
			}
		}
		b.Net.DesignatePassChain(rev)
	}
	return nil
}

// BidirRouterChannels returns the number of bidirectional router-to-router
// channels (the Fig. 12 metric).
func (b *Built) BidirRouterChannels() int {
	return b.Net.NumRouterChannels() / 2
}
