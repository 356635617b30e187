package noc

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"memnet/internal/audit"
	"memnet/internal/obs"
	"memnet/internal/sim"
)

// auditClean attaches the conservation audit and fails the test on any
// violation after the engine drains.
func auditClean(t *testing.T, eng *sim.Engine, n *Network) *audit.Registry {
	t.Helper()
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	n.Instrument(obs.Probe{Audit: reg})
	t.Cleanup(func() {
		if k := reg.Check(); k != 0 {
			for _, v := range reg.Violations() {
				t.Log(v)
			}
			t.Errorf("%d audit violations", k)
		}
	})
	return reg
}

// TestTransientRetransmission arms every channel with transient errors and
// checks all traffic still delivers, retransmissions are counted, and the
// conservation audits stay green.
func TestTransientRetransmission(t *testing.T) {
	eng, b := build(t, spec4x4(TopoSFBFLY))
	h := newEcho(b, 9)
	auditClean(t, eng, b.Net)
	for i := 0; i < b.Net.NumChannels(); i++ {
		b.Net.InjectTransient(i, 2)
	}
	rng := rand.New(rand.NewSource(11))
	const packets = 300
	for i := 0; i < packets; i++ {
		src := rng.Intn(4)
		dst := rng.Intn(b.Net.NumRouters())
		at := sim.Time(rng.Intn(2000)) * sim.Nanosecond
		eng.At(at, func() { b.Net.Send(b.Net.NewRequest(b.Terms[src], dst, 1)) })
	}
	eng.Run()
	if !b.Net.Quiescent() {
		t.Fatal("network did not drain under transient errors")
	}
	if h.responses != packets {
		t.Fatalf("delivered %d responses, want %d", h.responses, packets)
	}
	if b.Net.LinkRetries() == 0 {
		t.Fatal("no retransmissions recorded despite armed channels")
	}
}

// TestRetransmissionDelaysDelivery pins a single corrupted flit and checks
// the replay costs exactly one extra round trip on the link.
func TestRetransmissionDelaysDelivery(t *testing.T) {
	run := func(corrupt bool) sim.Time {
		eng, b := build(t, spec4x4(TopoSFBFLY))
		newEcho(b, 1)
		if corrupt {
			// Channel 0 is terminal 0's first injection channel (terminals
			// attach before router-router links are connected).
			b.Net.InjectTransient(0, 1)
		}
		b.Net.Send(b.Net.NewRequest(b.Terms[0], b.RouterID(0, 0), 1))
		return eng.Run()
	}
	clean, faulty := run(false), run(true)
	if faulty <= clean {
		t.Fatalf("retransmission did not delay delivery: clean=%d faulty=%d", clean, faulty)
	}
}

// TestRetryExhaustion overwhelms a channel's retry budget and checks the
// flit is forced through instead of looping forever.
func TestRetryExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.LinkRetryLimit = 2
	b, err := BuildTopology(eng, cfg, spec4x4(TopoSFBFLY))
	if err != nil {
		t.Fatal(err)
	}
	h := newEcho(b, 1)
	auditClean(t, eng, b.Net)
	b.Net.InjectTransient(0, 100) // far beyond the 2-retry budget
	b.Net.Send(b.Net.NewRequest(b.Terms[0], b.RouterID(0, 0), 1))
	eng.Run()
	if h.responses != 1 {
		t.Fatalf("packet lost under retry exhaustion: %d responses", h.responses)
	}
	ch := b.Net.Channel(0)
	if got := ch.Retries(); got != 2 {
		t.Errorf("channel retries = %d, want 2 (the budget)", got)
	}
	if got := ch.RetryExhausted(); got != 1 {
		t.Errorf("retry-exhausted count = %d, want 1", got)
	}
	// The burst ends when the budget trips: later flits see a clean link.
	if b.Net.Channel(0).pendingCorrupt != 0 {
		t.Error("pending corruption not cleared after exhaustion")
	}
}

// TestFailChannelReroutes fails survivable links on sFBFLY and checks
// traffic routes around them with conservation intact.
func TestFailChannelReroutes(t *testing.T) {
	eng, b := build(t, spec4x4(TopoSFBFLY))
	h := newEcho(b, 9)
	auditClean(t, eng, b.Net)
	hops0 := b.Net.MeanMinHops()
	failed := b.Net.FailSurvivableChannels(3, 3)
	if len(failed) != 3 {
		t.Fatalf("failed %d survivable pairs, want 3", len(failed))
	}
	for _, idx := range failed {
		if !b.Net.Channel(idx).Failed() {
			t.Fatalf("channel %d not marked failed", idx)
		}
	}
	if got := len(b.Net.FailedChannels()); got != 6 {
		t.Fatalf("%d failed channels, want 6 (3 bidirectional pairs)", got)
	}
	if hops1 := b.Net.MeanMinHops(); hops1 < hops0 {
		t.Errorf("mean minimal hops fell from %v to %v after failures", hops0, hops1)
	}
	rng := rand.New(rand.NewSource(5))
	const packets = 400
	for i := 0; i < packets; i++ {
		src := rng.Intn(4)
		dst := rng.Intn(b.Net.NumRouters())
		at := sim.Time(rng.Intn(2000)) * sim.Nanosecond
		eng.At(at, func() { b.Net.Send(b.Net.NewRequest(b.Terms[src], dst, 1)) })
	}
	eng.Run()
	if h.responses != packets {
		t.Fatalf("delivered %d responses, want %d", h.responses, packets)
	}
}

// TestFailSurvivablePrefixStable checks nested failure sets: the pairs
// chosen for k are a prefix of those chosen for k+1 under the same seed.
func TestFailSurvivablePrefixStable(t *testing.T) {
	_, b2 := build(t, spec4x4(TopoSFBFLY))
	_, b3 := build(t, spec4x4(TopoSFBFLY))
	f2 := b2.Net.FailSurvivableChannels(9, 2)
	f3 := b3.Net.FailSurvivableChannels(9, 3)
	if len(f2) != 2 || len(f3) != 3 {
		t.Fatalf("got %d and %d failures, want 2 and 3", len(f2), len(f3))
	}
	for i := range f2 {
		if f2[i] != f3[i] {
			t.Fatalf("failure sets not nested: %v vs %v", f2, f3)
		}
	}
}

// TestPartitionClearError severs a star terminal's last attachment to a
// router and checks the failure is reported as a partition.
func TestPartitionClearError(t *testing.T) {
	_, b := build(t, spec4x4(TopoStar))
	// Star: terminal 0's two attachment pairs on router 0 are channels
	// (0,1) and (2,3). Losing one is survivable, losing both cuts
	// router 0 off from terminal 0.
	if err := b.Net.FailChannel(0); err != nil {
		t.Fatalf("first attachment loss should be survivable: %v", err)
	}
	err := b.Net.FailChannel(2)
	if err == nil {
		t.Fatal("second attachment loss did not report a partition")
	}
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *PartitionError", err)
	}
	if !strings.Contains(err.Error(), "partitioned") {
		t.Errorf("error message %q does not name the partition", err)
	}
	if pe.Total == 0 || len(pe.Lost) == 0 {
		t.Errorf("partition error lists no lost pairs: %+v", pe)
	}
}

// TestStarSurvivableFallsBackToAttachments checks the degradation sweep
// can fail links on star, which has no router-router channels.
func TestStarSurvivableFallsBackToAttachments(t *testing.T) {
	_, b := build(t, spec4x4(TopoStar))
	failed := b.Net.FailSurvivableChannels(1, 4)
	if len(failed) != 4 {
		t.Fatalf("failed %d attachment pairs on star, want 4", len(failed))
	}
	// Every terminal must still reach all its local routers.
	for c := 0; c < 4; c++ {
		for l := 0; l < 4; l++ {
			r := b.RouterID(c, l)
			if b.Net.DistRouterToTerm(r, b.Terms[c]) < 0 {
				t.Errorf("router %d lost terminal %d", r, b.Terms[c])
			}
		}
	}
}

// TestDumpStateShowsFaults checks the diagnostic dump carries per-channel
// fault state.
func TestDumpStateShowsFaults(t *testing.T) {
	_, b := build(t, spec4x4(TopoSFBFLY))
	b.Net.FailSurvivableChannels(2, 1)
	b.Net.InjectTransient(0, 3)
	var sb strings.Builder
	b.Net.DumpState(&sb)
	out := sb.String()
	if !strings.Contains(out, "failed=true") {
		t.Errorf("dump lacks failed channel state:\n%s", out)
	}
	if !strings.Contains(out, "corruptPending=3") {
		t.Errorf("dump lacks pending corruption state:\n%s", out)
	}
}

// TestUGALWithFailedLinks checks UGAL + adaptive routing still deliver
// everything when links are down (failed candidates are excluded via the
// recomputed tables).
func TestUGALWithFailedLinks(t *testing.T) {
	eng, b := build(t, spec4x4(TopoSFBFLY))
	h := newEcho(b, 9)
	auditClean(t, eng, b.Net)
	b.Net.SetUGAL(true)
	b.Net.SetAdaptiveAll(true)
	b.Net.FailSurvivableChannels(7, 4)
	rng := rand.New(rand.NewSource(13))
	const packets = 300
	for i := 0; i < packets; i++ {
		src := rng.Intn(4)
		dst := rng.Intn(b.Net.NumRouters())
		at := sim.Time(rng.Intn(2000)) * sim.Nanosecond
		eng.At(at, func() { b.Net.Send(b.Net.NewRequest(b.Terms[src], dst, 1)) })
	}
	eng.Run()
	if h.responses != packets {
		t.Fatalf("delivered %d responses, want %d", h.responses, packets)
	}
}
