package noc

import "math/bits"

// busySet is an ascending-index bitset of the routers, channels or
// terminals that hold work. Network.step walks only the members, so a
// cycle costs in proportion to the work present rather than to the
// network's size; every skipped visit would have changed no state.
type busySet struct{ w []uint64 }

// newBusySet returns an empty set for indices below n.
func newBusySet(n int) busySet { return busySet{make([]uint64, (n+63)/64)} }

func (s *busySet) add(i int)      { s.w[i>>6] |= 1 << uint(i&63) }
func (s *busySet) remove(i int)   { s.w[i>>6] &^= 1 << uint(i&63) }
func (s *busySet) has(i int) bool { return s.w[i>>6]&(1<<uint(i&63)) != 0 }

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
