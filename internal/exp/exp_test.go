package exp

import (
	"strings"
	"testing"

	"memnet/internal/sim"
)

func TestFig12MatchesPaper(t *testing.T) {
	rows, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	byGPU := map[int]Fig12Row{}
	for _, r := range rows {
		byGPU[r.GPUs] = r
	}
	if r := byGPU[4]; r.DFBFLY != 48 || r.SFBFLY != 24 {
		t.Fatalf("4 GPUs: %d/%d, want 48/24", r.DFBFLY, r.SFBFLY)
	}
	if r := byGPU[8]; r.DFBFLY != 112 || r.SFBFLY != 64 {
		t.Fatalf("8 GPUs: %d/%d, want 112/64", r.DFBFLY, r.SFBFLY)
	}
	out := Fig12String(rows)
	if !strings.Contains(out, "sFBFLY") || !strings.Contains(out, "50%") {
		t.Fatalf("table rendering missing content:\n%s", out)
	}
}

func TestTableIIListsAllWorkloads(t *testing.T) {
	out := TableII()
	for _, abbr := range Fig14Workloads() {
		if !strings.Contains(out, abbr) {
			t.Fatalf("Table II missing %s:\n%s", abbr, out)
		}
	}
	if !strings.Contains(out, "1024x1024 screen") {
		t.Fatal("Table II missing paper input descriptions")
	}
}

func TestFig7SmallScale(t *testing.T) {
	r, err := Env{}.Fig7(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PCIe) != 3 || len(r.GMN) != 3 {
		t.Fatal("Fig7 must have three points per series")
	}
	if r.PCIe[0].Normalized != 1 || r.GMN[0].Normalized != 1 {
		t.Fatal("first point must be the normalization base")
	}
	if r.PCIe[2].Normalized <= r.PCIe[1].Normalized {
		t.Fatal("PCIe slowdown must be monotonic")
	}
	if r.GMN[2].Normalized > 1.3 {
		t.Fatalf("GMN at 75%% remote = %.2f, should stay near 1", r.GMN[2].Normalized)
	}
	if !strings.Contains(r.String(), "Fig. 7") {
		t.Fatal("rendering broken")
	}
}

// TestFig14StringPrintsTotals renders a hand-built result: each total is
// printed in µs like its two terms, under a header as wide as its cell.
func TestFig14StringPrintsTotals(t *testing.T) {
	us := sim.Microsecond
	r := &Fig14Result{Rows: []Fig14Row{{Workload: "BP", Cells: []Fig14Cell{
		{Arch: "PCIe", H2D: 120 * us, D2H: 81 * us, Kernel: 100 * us, Host: 14 * us, Total: 315 * us},
		{Arch: "UMN", Kernel: 9 * us, Total: 9 * us},
	}}}}
	want := "\n                         PCIe                    UMN\n" +
		"BP         201+   114=    315       0+     9=      9\n"
	if got := r.String(); !strings.Contains(got, want) {
		t.Fatalf("Fig. 14 table renders as\n%s\nwant rows%s", got, want)
	}
}

func TestCTASchedRendering(t *testing.T) {
	rows, err := Env{}.CTASched(0.05, []string{"SRAD"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 policies, got %d", len(rows))
	}
	out := SchedString(rows)
	for _, p := range []string{"static-chunk", "round-robin", "static+steal"} {
		if !strings.Contains(out, p) {
			t.Fatalf("missing policy %s in:\n%s", p, out)
		}
	}
}

func TestGeomeanBy(t *testing.T) {
	rows := []TopoRow{
		{Workload: "A", Topo: "x", Kernel: 200},
		{Workload: "A", Topo: "y", Kernel: 100},
		{Workload: "B", Topo: "x", Kernel: 800},
		{Workload: "B", Topo: "y", Kernel: 100},
	}
	g := GeomeanBy(rows, "x", "y", func(r TopoRow) float64 { return float64(r.Kernel) })
	if g < 3.99 || g > 4.01 { // sqrt(2*8) = 4
		t.Fatalf("GeomeanBy = %v, want 4", g)
	}
}

func TestFig10ShapesAtTinyScale(t *testing.T) {
	rs, err := Env{}.Fig10(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Workload != "KMN" || rs[1].Workload != "CG.S" {
		t.Fatalf("unexpected workloads: %+v", rs)
	}
	if rs[1].Imbalance <= rs[0].Imbalance {
		t.Fatalf("CG.S imbalance %.1f not above KMN %.1f", rs[1].Imbalance, rs[0].Imbalance)
	}
	// Fractions sum to ~1.
	for _, r := range rs {
		var sum float64
		for _, row := range r.Fraction {
			for _, v := range row {
				sum += v
			}
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s fractions sum to %v", r.Workload, sum)
		}
		if !strings.Contains(r.String(), r.Workload) {
			t.Fatal("rendering broken")
		}
	}
}

func TestFig15RunsAndRenders(t *testing.T) {
	rows, err := Env{}.Fig15(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 topologies x 3 workloads
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	out := Fig15String(rows)
	for _, want := range []string{"dDFLY", "dFBFLY", "CG.S", "UGAL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFig16RunsAndRenders(t *testing.T) {
	rows, err := Env{}.Fig16(0.05, []string{"VA"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // five sliced designs
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Kernel <= 0 || r.EnergyJ <= 0 || r.Channels <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	out := TopoRowsString(rows)
	if !strings.Contains(out, "sFBFLY") || !strings.Contains(out, "sTORUS-2x") {
		t.Fatalf("rendering incomplete:\n%s", out)
	}
}

func TestPlacementRunsAndRenders(t *testing.T) {
	rows, err := Env{}.Placement(0.05, []string{"VA"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (random + owner-compute)", len(rows))
	}
	out := PlacementString(rows)
	if !strings.Contains(out, "owner-compute") {
		t.Fatalf("rendering incomplete:\n%s", out)
	}
}
