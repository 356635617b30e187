package noc

import (
	"fmt"
	"io"
)

// DumpState writes a human-readable snapshot of all in-flight network state
// to w: buffered flits per router input VC, channel occupancy, hold queues
// and terminal injection queues. It is a diagnostic aid for stalled
// simulations.
func (n *Network) DumpState(w io.Writer) {
	fmt.Fprintf(w, "cycle=%d active=%d inflight=%d (injected=%d retired=%d)\n",
		n.cycle, n.active, n.flitsInjected-n.flitsRetired, n.flitsInjected, n.flitsRetired)
	for _, r := range n.routers {
		fmt.Fprintf(w, "router %d: buffered=%d flits\n", r.id, r.BufferedFlits())
		ports := r.allPorts()
		for pi, p := range ports {
			for vi := range p.vcs {
				vc := &p.vcs[vi]
				if vc.q.Empty() && !vc.active {
					continue
				}
				label := fmt.Sprintf("in%d", pi)
				if pi == len(ports)-1 {
					label = "NI"
				}
				fmt.Fprintf(w, "router %d %s vc%d: %d flits active=%v outPort=%d outVC=%d",
					r.id, label, vi, vc.flits, vc.active, vc.outPort, vc.outVC)
				if !vc.q.Empty() {
					f := vc.q.Front()
					fmt.Fprintf(w, " front{pkt=%d idx=%d/%d ready=%d elastic=%v}",
						f.f.pkt.ID, f.f.idx, f.f.pkt.Size, f.f.readyCycle, f.elastic)
				}
				if vc.active && vc.outPort >= 0 {
					fmt.Fprintf(w, " credits[outVC]=%d vcBusy=%v",
						r.out[vc.outPort].credits[vc.outVC], r.out[vc.outPort].vcBusy[vc.outVC])
				}
				fmt.Fprintln(w)
			}
		}
	}
	for _, c := range n.channels {
		faulty := c.failed || c.pendingCorrupt > 0 || c.retries > 0 || c.retryExhausted > 0
		if c.fifo.Empty() && c.holdQ.Empty() && c.expressing == 0 && len(c.passState) == 0 && !faulty {
			continue
		}
		fmt.Fprintf(w, "channel %d (%d/%d->%d/%d): fifo=%d hold=%d expressing=%d passState=%d",
			c.index, c.srcRouter, c.srcTerm, c.dstRouter, c.dstTerm,
			c.fifo.Len(), c.holdQ.Len(), c.expressing, len(c.passState))
		if faulty {
			fmt.Fprintf(w, " failed=%v corruptPending=%d retries=%d retryExhausted=%d",
				c.failed, c.pendingCorrupt, c.retries, c.retryExhausted)
			if !c.fifo.Empty() {
				front := c.fifo.Front()
				fmt.Fprintf(w, " front{pkt=%d idx=%d arrive=%d attempts=%d}",
					front.f.pkt.ID, front.f.idx, front.arrive, front.attempts)
			}
		}
		fmt.Fprintln(w)
	}
	for _, t := range n.terminals {
		for i, p := range t.ports {
			if p.cur == nil && p.q.Empty() {
				continue
			}
			fmt.Fprintf(w, "terminal %d port %d: queued=%d", t.id, i, p.q.Len())
			if p.cur != nil {
				fmt.Fprintf(w, " cur{pkt=%d flit=%d/%d}", p.cur.ID, p.curFlit, p.cur.Size)
				vc := n.vcIndex(p.cur)
				fmt.Fprintf(w, " credits[vc%d]=%d", vc, p.credits[vc])
			}
			fmt.Fprintln(w)
		}
	}
}
