package noc

import "memnet/internal/prof"

// classifyCycle runs once per cycle after allocation, attributing the
// current cycle to a stall cause for every buffered VC whose front flit
// is ready but did not move. Head-flit causes also feed the per-packet
// records; all ready-front causes feed the heat cells. The pass only
// reads router state, and only busy routers buffer anything.
func (n *Network) classifyCycle() {
	np := n.prof
	for ri := n.busyRouters.next(0); ri >= 0; ri = n.busyRouters.next(ri + 1) {
		r := n.routers[ri]
		rh := &np.Routers[ri]
		for pi, p := range r.ports {
			if p.occupied == 0 {
				continue
			}
			base := pi * rh.VCs
			for vi := range p.vcs {
				vc := &p.vcs[vi]
				depth := vc.q.Len()
				if depth == 0 {
					continue
				}
				cell := &rh.Cells[base+vi]
				cell.Occ += int64(depth)
				bf := vc.q.Front()
				if bf.f.readyCycle > n.cycle {
					continue
				}
				// The front flit was ready this cycle and is still here:
				// classify why. A front body flit always belongs to an
				// active VC (wormhole), so the head-only note methods
				// and the heat cells see the same cause.
				rec := bf.f.pkt.prof
				head := bf.f.idx == 0
				switch {
				case !vc.active:
					cell.VCAllocGap++
					if head && rec != nil {
						rec.NoteVCAlloc()
					}
				case vc.outPort == ejectPort:
					cell.EjectStall++
					if head && rec != nil {
						rec.NoteEject()
					}
				case r.out[vc.outPort].credits[vc.outVC] <= 0:
					cell.CreditStall++
					if head && rec != nil {
						rec.NoteCredit()
					}
				default:
					cell.ArbStall++
					if head && rec != nil {
						rec.NoteArb()
					}
				}
			}
		}
	}
}

// ProfSnapshot renders the attached profiler's state plus channel
// utilization as the network section of a profile artifact. Returns nil
// when no profiler is attached.
func (n *Network) ProfSnapshot() *prof.NetSection {
	if n.prof == nil {
		return nil
	}
	s := &prof.NetSection{
		ClockMHz: n.cfg.ClockMHz,
		Cycles:   n.cycle,
		Classes:  n.prof.ClassProfiles(),
		Routers:  n.prof.Routers,
	}
	for _, c := range n.channels {
		s.Channels = append(s.Channels, prof.ChannelHeat{
			Index:      c.index,
			SrcRouter:  c.srcRouter,
			SrcTerm:    c.srcTerm,
			DstRouter:  c.dstRouter,
			DstTerm:    c.dstTerm,
			BusyCycles: c.busyCycles,
			Retries:    c.retries,
		})
	}
	return s
}
