package noc

import (
	"fmt"
	"math/rand"
	"strings"
)

// This file implements the network's fault model (ISSUE 5):
//
//   - transient link errors: InjectTransient arms a channel to corrupt its
//     next flit arrivals; the link-level CRC/NAK retransmission protocol in
//     Channel.deliver replays them, bounded by Config.LinkRetryLimit.
//   - permanent link failures: FailChannel fail-stops a bidirectional
//     channel pair; RecomputeRoutes rebuilds the minimal routing tables
//     over the surviving channels, exploiting the sFBFLY/dFBFLY path
//     diversity, and detects partition against a pristine reachability
//     snapshot taken at Finalize.
//
// Failed links use drain semantics: flits already in a channel FIFO (or
// wormholes already allocated across it) complete normally; only new route
// computation avoids the dead pair. Flit/credit conservation is therefore
// untouched and the audit layer stays green under every fault scenario.

// reachSnapshot records which (source, destination) pairs can communicate:
// router→router, router→terminal, and terminal→router/terminal through the
// terminal's live attachment ports.
type reachSnapshot struct {
	nR, nT int
	rr     []bool // [r*nR+d]
	rt     []bool // [r*nT+t]
	tr     []bool // [t*nR+r]
	tt     []bool // [t*nT+u]
}

// reachNow derives the snapshot from a routing table and the current
// per-channel fault flags.
func (n *Network) reachNow(rt *routeTable) *reachSnapshot {
	nR, nT := rt.nR, rt.nT
	s := &reachSnapshot{
		nR: nR, nT: nT,
		rr: make([]bool, nR*nR), rt: make([]bool, nR*nT),
		tr: make([]bool, nT*nR), tt: make([]bool, nT*nT),
	}
	for r := 0; r < nR; r++ {
		for d := 0; d < nR; d++ {
			s.rr[r*nR+d] = r == d || rt.distToRouter(r, d) > 0
		}
		for t := 0; t < nT; t++ {
			s.rt[r*nT+t] = rt.distToTerm(r, t) > 0
		}
	}
	for t, term := range n.terminals {
		for _, p := range term.ports {
			if p.toRouter.failed {
				continue // dead attachment: cannot inject here
			}
			for r := 0; r < nR; r++ {
				if p.router == r || rt.distToRouter(p.router, r) > 0 {
					s.tr[t*nR+r] = true
				}
			}
			for u := 0; u < nT; u++ {
				if rt.distToTerm(p.router, u) > 0 {
					s.tt[t*nT+u] = true
				}
			}
		}
	}
	return s
}

// diff returns a *PartitionError naming pairs reachable in base but not in
// now, or nil when now preserves all of base's connectivity.
func (base *reachSnapshot) diff(now *reachSnapshot) error {
	var e PartitionError
	lost := func(desc string) {
		e.Total++
		if len(e.Lost) < 4 {
			e.Lost = append(e.Lost, desc)
		}
	}
	for r := 0; r < base.nR; r++ {
		for d := 0; d < base.nR; d++ {
			if base.rr[r*base.nR+d] && !now.rr[r*base.nR+d] {
				lost(fmt.Sprintf("router %d -> router %d", r, d))
			}
		}
		for t := 0; t < base.nT; t++ {
			if base.rt[r*base.nT+t] && !now.rt[r*base.nT+t] {
				lost(fmt.Sprintf("router %d -> terminal %d", r, t))
			}
		}
	}
	for t := 0; t < base.nT; t++ {
		for r := 0; r < base.nR; r++ {
			if base.tr[t*base.nR+r] && !now.tr[t*base.nR+r] {
				lost(fmt.Sprintf("terminal %d -> router %d", t, r))
			}
		}
		for u := 0; u < base.nT; u++ {
			if base.tt[t*base.nT+u] && !now.tt[t*base.nT+u] {
				lost(fmt.Sprintf("terminal %d -> terminal %d", t, u))
			}
		}
	}
	if e.Total == 0 {
		return nil
	}
	return &e
}

// PartitionError reports connectivity that a link failure severed: pairs
// that could communicate in the pristine topology no longer can.
type PartitionError struct {
	Lost  []string // first few lost pairs, human-readable
	Total int      // total lost pairs
}

func (e *PartitionError) Error() string {
	msg := "noc: network partitioned: " + strings.Join(e.Lost, ", ")
	if e.Total > len(e.Lost) {
		msg += fmt.Sprintf(", … (%d pairs lost)", e.Total)
	}
	return msg
}

// InjectTransient arms channel idx to corrupt its next k flit arrivals;
// the link-level retransmission protocol replays each, subject to
// Config.LinkRetryLimit. Out-of-range indices and non-positive counts are
// ignored.
func (n *Network) InjectTransient(idx, k int) {
	if idx < 0 || idx >= len(n.channels) || k <= 0 {
		return
	}
	n.channels[idx].pendingCorrupt += k
}

// FailChannel permanently fail-stops the bidirectional channel pair
// containing channel idx and recomputes routes around it. Traffic already
// committed to the pair drains normally. When the loss partitions the
// network the failure stays applied and a *PartitionError describes the
// severed connectivity — the caller decides whether that aborts the run.
// Failing an already-failed channel is a no-op.
func (n *Network) FailChannel(idx int) error {
	if idx < 0 || idx >= len(n.channels) {
		return fmt.Errorf("noc: FailChannel index %d outside [0,%d)", idx, len(n.channels))
	}
	c := n.channels[idx]
	if c.failed {
		return nil
	}
	c.failed = true
	if c.partner >= 0 {
		n.channels[c.partner].failed = true
	}
	n.noteLinkFailed(c)
	return n.RecomputeRoutes()
}

// RecomputeRoutes rebuilds the minimal routing tables over the live
// channels and compares reachability against the pristine snapshot taken
// at Finalize, returning a *PartitionError when connectivity was lost.
func (n *Network) RecomputeRoutes() error {
	rt, err := buildRoutes(n)
	if err != nil {
		return err
	}
	n.routes = rt
	if n.baseReach == nil {
		return nil
	}
	return n.baseReach.diff(n.reachNow(rt))
}

// FailSurvivableChannels fails up to k bidirectional channel pairs chosen
// pseudo-randomly from seed, skipping any whose loss would partition the
// network. Candidates are router-to-router pairs; topologies without them
// (star) degrade terminal-attachment pairs instead. Selection is
// prefix-stable: the pairs failed for k are a prefix of those failed for
// k+1 under the same seed, so nested failure sets yield monotone
// degradation. Returns the forward channel index of each failed pair
// (possibly fewer than k when the topology runs out of survivable links).
func (n *Network) FailSurvivableChannels(seed int64, k int) []int {
	var cand []int
	for _, c := range n.channels {
		if c.partner > c.index && !c.failed && c.srcRouter >= 0 && c.dstRouter >= 0 {
			cand = append(cand, c.index)
		}
	}
	if len(cand) == 0 {
		for _, c := range n.channels {
			if c.partner > c.index && !c.failed && c.srcTerm >= 0 {
				cand = append(cand, c.index)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	var failed []int
	for _, idx := range cand {
		if len(failed) >= k {
			break
		}
		c := n.channels[idx]
		c.failed = true
		n.channels[c.partner].failed = true
		if n.RecomputeRoutes() != nil {
			// Would partition: revert and restore a consistent table.
			c.failed = false
			n.channels[c.partner].failed = false
			if err := n.RecomputeRoutes(); err != nil {
				panic(fmt.Sprintf("noc: reverted link failure still partitions: %v", err))
			}
			continue
		}
		n.noteLinkFailed(c)
		failed = append(failed, idx)
	}
	return failed
}

// FailedChannels returns the indices of all failed channels.
func (n *Network) FailedChannels() []int {
	var out []int
	for _, c := range n.channels {
		if c.failed {
			out = append(out, c.index)
		}
	}
	return out
}

// FlitsRetired returns the number of flits retired since construction
// (delivered to a terminal or ejected at a router) — the network's
// forward-progress signal.
func (n *Network) FlitsRetired() int64 { return n.flitsRetired }

// LinkRetries returns total link-level flit retransmissions across all
// channels.
func (n *Network) LinkRetries() int64 { return n.linkRetries }

func (n *Network) noteRetransmit(c *Channel, pkt *Packet, attempt int) {
	n.linkRetries++
	if n.faultTrack.Enabled() {
		n.faultTrack.Instant(fmt.Sprintf("retransmit ch%d pkt%d attempt %d",
			c.index, pkt.ID, attempt), n.eng.Now())
	}
}

func (n *Network) noteRetryExhausted(c *Channel, pkt *Packet) {
	if n.faultTrack.Enabled() {
		n.faultTrack.Instant(fmt.Sprintf("retry budget exhausted ch%d pkt%d",
			c.index, pkt.ID), n.eng.Now())
	}
}

func (n *Network) noteLinkFailed(c *Channel) {
	if n.faultTrack.Enabled() {
		n.faultTrack.Instant(fmt.Sprintf("link failed ch%d<->ch%d", c.index, c.partner),
			n.eng.Now())
	}
}
