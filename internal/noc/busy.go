package noc

import "math/bits"

// busySet is an ascending-index bitset of the routers, channels or
// terminals that hold work, and of a router's (input port, VC) pairs that
// an allocator must consider. Network.step and the allocators walk only
// the members, so a cycle costs in proportion to the work present rather
// than to the network's size; every skipped visit would have changed no
// state.
type busySet struct{ w []uint64 }

func (s *busySet) add(i int)      { s.w[i>>6] |= 1 << uint(i&63) }
func (s *busySet) remove(i int)   { s.w[i>>6] &^= 1 << uint(i&63) }
func (s *busySet) has(i int) bool { return s.w[i>>6]&(1<<uint(i&63)) != 0 }

// empty reports whether the set has no member.
func (s *busySet) empty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the smallest member >= i, or -1 when there is none. It
// reads the live words, so a walk
//
//	for i := s.next(0); i >= 0; i = s.next(i + 1)
//
// also visits members added above the current index during the walk,
// exactly as an ascending scan over every component would.
func (s *busySet) next(i int) int {
	wi := i >> 6
	if wi >= len(s.w) {
		return -1
	}
	word := s.w[wi] &^ (1<<uint(i&63) - 1)
	for word == 0 {
		if wi++; wi == len(s.w) {
			return -1
		}
		word = s.w[wi]
	}
	return wi<<6 + bits.TrailingZeros64(word)
}

// allocBitsets sizes the network's busy sets and every router's pair sets
// and claimed-output set, all empty, from one backing array.
func (n *Network) allocBitsets() {
	assign := func(set func(size int) busySet) {
		n.busyRouters = set(len(n.routers))
		n.busyChannels = set(len(n.channels))
		n.busyTerminals = set(len(n.terminals))
		for _, r := range n.routers {
			pairs := len(r.ports) * n.totalVCs()
			r.waiting, r.ejecting, r.claimed = set(pairs), set(pairs), set(len(r.out))
			for _, op := range r.out {
				op.claimants = set(pairs)
			}
		}
	}
	words := 0
	assign(func(size int) busySet { words += (size + 63) / 64; return busySet{} })
	w := make([]uint64, words)
	assign(func(size int) busySet {
		k := (size + 63) / 64
		s := busySet{w[:k:k]}
		w = w[k:]
		return s
	})
}
