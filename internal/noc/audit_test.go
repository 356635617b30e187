package noc

import (
	"math/rand"
	"testing"

	"memnet/internal/audit"
	"memnet/internal/obs"
	"memnet/internal/sim"
)

// TestNetworkAuditCleanTraffic runs heavy mixed traffic (overlay express
// included) with the conservation audit attached and checks invariants both
// mid-flight — at instants between network cycles — and after the drain.
// A healthy network must never report a violation.
func TestNetworkAuditCleanTraffic(t *testing.T) {
	for _, overlay := range []bool{false, true} {
		eng := sim.NewEngine()
		spec := spec4x4(TopoSFBFLY)
		if overlay {
			spec.CPUCluster = 0
			spec.Overlay = true
		}
		b, err := BuildTopology(eng, DefaultConfig(), spec)
		if err != nil {
			t.Fatal(err)
		}
		newEcho(b, 9)
		reg := audit.New(func() int64 { return int64(eng.Now()) })
		b.Net.Instrument(obs.Probe{Audit: reg})
		if reg.NumCheckers() == 0 {
			t.Fatal("no checkers registered")
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			src := rng.Intn(4)
			req := NewRequest(0, b.Terms[src], rng.Intn(16), 1+8*rng.Intn(2))
			req.PassThrough = overlay && src == 0
			at := sim.Time(rng.Intn(1500)) * sim.Nanosecond
			eng.At(at, func() { b.Net.Send(req) })
		}
		// Off-edge instants land between network cycles, where the
		// event-boundary invariants must hold even under load.
		for _, at := range []sim.Time{333*sim.Nanosecond + 1, 900*sim.Nanosecond + 3, 1600*sim.Nanosecond + 7} {
			at := at
			eng.At(at, func() {
				if k := reg.Check(); k != 0 {
					for _, v := range reg.Violations() {
						t.Log(v)
					}
					t.Errorf("overlay=%v: %d violations mid-run at t=%d", overlay, k, at)
				}
			})
		}
		eng.Run()
		if !b.Net.Quiescent() {
			t.Fatalf("overlay=%v: network did not drain", overlay)
		}
		if k := reg.Check(); k != 0 {
			for _, v := range reg.Violations() {
				t.Log(v)
			}
			t.Fatalf("overlay=%v: %d violations after drain", overlay, k)
		}
	}
}

// TestNetworkAuditDetectsTampering corrupts a drained network in the ways
// each invariant is meant to catch and verifies the audit reports them.
func TestNetworkAuditDetectsTampering(t *testing.T) {
	b, _, _ := randomTraffic(t, TopoSFBFLY, 200, false, false)
	reg := audit.New(func() int64 { return 0 })
	b.Net.Instrument(obs.Probe{Audit: reg})
	if reg.Check() != 0 {
		t.Fatalf("drained network not clean: %v", reg.Violations())
	}
	r := b.Net.routers[0]

	// A leaked credit breaks the per-VC balance.
	r.out[0].credits[0]--
	if reg.Check() == 0 {
		t.Error("credit leak not detected")
	}
	r.out[0].credits[0]++
	reg.Reset()

	// A miscounted injection breaks the flit ledger.
	b.Net.flitsInjected++
	if reg.Check() == 0 {
		t.Error("flit ledger mismatch not detected")
	}
	b.Net.flitsInjected--
	reg.Reset()

	// An output VC stuck busy with no input VC holding it.
	r.out[0].vcBusy[1] = true
	if reg.Check() == 0 {
		t.Error("stuck vcBusy not detected")
	}
	r.out[0].vcBusy[1] = false
	reg.Reset()

	// A non-elastic flit squatting on the reserved pass-through VC is both
	// a legality violation and a conservation violation.
	pkt := &Packet{ID: 9999, Class: ClassRequest, SrcTerm: 0, SrcRouter: -1,
		DstTerm: -1, DstRouter: r.id, Size: 1, Inter: -1}
	rv := b.Net.reservedVC(ClassRequest)
	r.in[0].vcs[rv].q.Push(bufFlit{f: flit{pkt: pkt}})
	if reg.Check() == 0 {
		t.Error("illegal reserved-VC occupancy not detected")
	}
	r.in[0].vcs[rv].q.Pop()
	reg.Reset()

	// Stale busy bits on idle components, and claim counts that no
	// allocated input VC backs.
	stale := []struct {
		what         string
		tamper, undo func()
	}{
		{"stale router bit", func() { b.Net.busyRouters.add(r.id) }, func() { b.Net.busyRouters.remove(r.id) }},
		{"stale channel bit", func() { b.Net.busyChannels.add(0) }, func() { b.Net.busyChannels.remove(0) }},
		{"stale terminal bit", func() { b.Net.busyTerminals.add(0) }, func() { b.Net.busyTerminals.remove(0) }},
		{"skewed claim count", func() { r.out[0].claims++ }, func() { r.out[0].claims-- }},
		{"skewed eject count", func() { r.ejectClaims++ }, func() { r.ejectClaims-- }},
	}
	for _, c := range stale {
		c.tamper()
		if reg.Check() == 0 {
			t.Errorf("%s not detected", c.what)
		}
		c.undo()
		reg.Reset()
	}
	if reg.Check() != 0 {
		t.Fatalf("restored network still dirty: %v", reg.Violations())
	}
}

// TestNetworkAuditDetectsClearedBusyBits clears the busy bit of a router,
// a channel and a terminal that hold work mid-run, and skews a claim count
// that live allocations back: step would skip such a component or port
// and stall its work, so the audit must report each.
func TestNetworkAuditDetectsClearedBusyBits(t *testing.T) {
	eng := sim.NewEngine()
	b, err := BuildTopology(eng, DefaultConfig(), spec4x4(TopoSFBFLY))
	if err != nil {
		t.Fatal(err)
	}
	newEcho(b, 9)
	n := b.Net
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	n.Instrument(obs.Probe{Audit: reg})
	// Every terminal queues far more flits than it can inject by the check
	// instant, which falls between network cycles.
	eng.At(sim.Nanosecond, func() {
		for src := range b.Terms {
			for i := 0; i < 100; i++ {
				n.Send(NewRequest(0, b.Terms[src], (7*src+i)%n.NumRouters(), 9))
			}
		}
	})
	checked := false
	eng.At(50*sim.Nanosecond+1, func() {
		checked = true
		if reg.Check() != 0 {
			t.Fatalf("untampered network reported: %v", reg.Violations())
		}
		ri, ci, ti := n.busyRouters.next(0), n.busyChannels.next(0), n.busyTerminals.next(0)
		if ri < 0 || ci < 0 || ti < 0 {
			t.Fatalf("busy sets empty mid-run: router %d channel %d terminal %d", ri, ci, ti)
		}
		var claimed *outPort
		for _, r := range n.routers {
			for _, op := range r.out {
				if op.claims > 0 && claimed == nil {
					claimed = op
				}
			}
		}
		if claimed == nil {
			t.Fatal("no output port claimed mid-run")
		}
		saved := claimed.claims
		cases := []struct {
			what         string
			tamper, undo func()
		}{
			{"cleared router bit", func() { n.busyRouters.remove(ri) }, func() { n.busyRouters.add(ri) }},
			{"cleared channel bit", func() { n.busyChannels.remove(ci) }, func() { n.busyChannels.add(ci) }},
			{"cleared terminal bit", func() { n.busyTerminals.remove(ti) }, func() { n.busyTerminals.add(ti) }},
			{"claim count dropped to zero", func() { claimed.claims = 0 }, func() { claimed.claims = saved }},
		}
		for _, c := range cases {
			c.tamper()
			if reg.Check() == 0 {
				t.Errorf("%s not detected", c.what)
			}
			c.undo()
			reg.Reset()
			if reg.Check() != 0 {
				t.Fatalf("undoing %s left violations: %v", c.what, reg.Violations())
			}
		}
	})
	eng.Run()
	if !checked {
		t.Fatal("check instant never reached")
	}
	if k := reg.Check(); k != 0 {
		t.Fatalf("%d violations after drain: %v", k, reg.Violations())
	}
}
