package exp

import "testing"

// TestDegradationMonotone checks the degradation sweep's core claim: with
// nested failure sets (prefix-stable selection under one seed), saturation
// throughput never increases and latency never decreases as links fail.
func TestDegradationMonotone(t *testing.T) {
	rows, err := Env{}.Degradation(2)
	if err != nil {
		t.Fatal(err)
	}
	byTopo := map[string][]DegRow{}
	for _, r := range rows {
		byTopo[r.Topo] = append(byTopo[r.Topo], r)
	}
	if len(byTopo) != 3 {
		t.Fatalf("got %d topologies, want 3", len(byTopo))
	}
	for topo, rs := range byTopo {
		if len(rs) != 3 {
			t.Fatalf("%s: %d rows, want 3 (k=0..2)", topo, len(rs))
		}
		if rs[0].Throughput <= 0 {
			t.Fatalf("%s: zero throughput with no failed links", topo)
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].FailedLinks != rs[i-1].FailedLinks+1 {
				t.Fatalf("%s: rows out of order: %+v", topo, rs)
			}
			if rs[i].Throughput > rs[i-1].Throughput {
				t.Errorf("%s: throughput rose with more failed links: %.3f @%d -> %.3f @%d",
					topo, rs[i-1].Throughput, rs[i-1].FailedLinks,
					rs[i].Throughput, rs[i].FailedLinks)
			}
			if rs[i].AvgLatency < rs[i-1].AvgLatency {
				t.Errorf("%s: latency fell with more failed links: %.1f @%d -> %.1f @%d",
					topo, rs[i-1].AvgLatency, rs[i-1].FailedLinks,
					rs[i].AvgLatency, rs[i].FailedLinks)
			}
		}
	}
	if s := DegradationString(rows); len(s) == 0 {
		t.Fatal("empty degradation table")
	}
}
