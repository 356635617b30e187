// Package coherence implements a directory-based MOESI cache-coherence
// protocol (the CPU-side protocol listed in Table I of the paper).
//
// The directory is a full-map directory at line granularity. Agents are
// caching entities: the CPU core's cache hierarchy and the DMA engine in
// this system (the protocol itself supports any number of agents and is
// exercised more broadly in tests). The package models protocol *state and
// traffic* — who supplies data, who gets invalidated, what is written back
// — while timing costs are applied by the caller per returned Action.
package coherence

import (
	"fmt"

	"memnet/internal/mem"
	"memnet/internal/stats"
)

// State is a MOESI cache line state.
type State int

// MOESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Source says who supplies data for a request.
type Source int

// Data sources.
const (
	FromMemory Source = iota
	FromOwner
	FromNone // upgrade hits: requester already has the data
)

// Action describes everything a request caused.
type Action struct {
	// Granted is the state the requesting agent holds afterwards.
	Granted State
	// Data is where the line's data came from.
	Data Source
	// Owner is the agent that supplied data when Data == FromOwner.
	Owner int
	// Invalidated lists agents whose copies were invalidated.
	Invalidated []int
	// Downgraded lists agents whose copies were downgraded (M/E -> O/S).
	Downgraded []int
	// WroteBack is true when dirty data was written to memory.
	WroteBack bool
}

// Stats counts protocol events.
type Stats struct {
	Reads         stats.Counter
	Writes        stats.Counter
	Evictions     stats.Counter
	Invalidations stats.Counter
	Interventions stats.Counter // owner-supplied data
	WriteBacks    stats.Counter
}

type entry struct {
	states []State // per-agent state
}

// Directory is the protocol home node for all memory lines.
type Directory struct {
	agents int
	lines  map[mem.Addr]*entry

	Stats Stats
}

// NewDirectory returns a directory for n caching agents.
func NewDirectory(n int) *Directory {
	if n <= 0 {
		panic("coherence: need at least one agent")
	}
	return &Directory{agents: n, lines: make(map[mem.Addr]*entry)}
}

func (d *Directory) entryOf(line mem.Addr) *entry {
	e, ok := d.lines[line]
	if !ok {
		e = &entry{states: make([]State, d.agents)}
		d.lines[line] = e
	}
	return e
}

func (d *Directory) check(agent int) {
	if agent < 0 || agent >= d.agents {
		panic(fmt.Sprintf("coherence: agent %d out of range", agent))
	}
}

// StateOf returns agent's state for line.
func (d *Directory) StateOf(agent int, line mem.Addr) State {
	d.check(agent)
	if e, ok := d.lines[line]; ok {
		return e.states[agent]
	}
	return Invalid
}

// Read handles a load (GetS) from agent for line.
func (d *Directory) Read(agent int, line mem.Addr) Action {
	d.check(agent)
	d.Stats.Reads.Inc()
	e := d.entryOf(line)
	switch e.states[agent] {
	case Modified, Exclusive, Owned, Shared:
		return Action{Granted: e.states[agent], Data: FromNone}
	}
	// Find an owner (M or O) or any sharer.
	owner, hasOwner := -1, false
	anyCopy := false
	for a, s := range e.states {
		if s == Modified || s == Owned || s == Exclusive {
			owner, hasOwner = a, true
		}
		if s != Invalid {
			anyCopy = true
		}
	}
	if hasOwner {
		// Dirty owners supply data and keep it as Owned (MOESI avoids the
		// memory write-back MESI would need). Exclusive owners downgrade
		// to Shared; memory still has clean data.
		d.Stats.Interventions.Inc()
		act := Action{Granted: Shared, Owner: owner, Downgraded: []int{owner}}
		switch e.states[owner] {
		case Modified:
			e.states[owner] = Owned
			act.Data = FromOwner
		case Owned:
			act.Data = FromOwner
			act.Downgraded = nil // owner already O
		case Exclusive:
			e.states[owner] = Shared
			act.Data = FromMemory
		}
		e.states[agent] = Shared
		return act
	}
	if anyCopy {
		e.states[agent] = Shared
		return Action{Granted: Shared, Data: FromMemory}
	}
	// Sole copy: grant Exclusive.
	e.states[agent] = Exclusive
	return Action{Granted: Exclusive, Data: FromMemory}
}

// Write handles a store (GetM) from agent for line.
func (d *Directory) Write(agent int, line mem.Addr) Action {
	d.check(agent)
	d.Stats.Writes.Inc()
	e := d.entryOf(line)
	act := Action{Granted: Modified}
	switch e.states[agent] {
	case Modified:
		act.Data = FromNone
		return act
	case Exclusive:
		e.states[agent] = Modified
		act.Data = FromNone
		return act
	case Owned, Shared:
		act.Data = FromNone // upgrade: data already present
	default:
		act.Data = FromMemory
	}
	for a, s := range e.states {
		if a == agent || s == Invalid {
			continue
		}
		if s == Modified || s == Owned {
			// Dirty remote copy supplies the data.
			act.Data = FromOwner
			act.Owner = a
			d.Stats.Interventions.Inc()
		}
		e.states[a] = Invalid
		act.Invalidated = append(act.Invalidated, a)
		d.Stats.Invalidations.Inc()
	}
	e.states[agent] = Modified
	return act
}

// Evict handles agent dropping its copy of line (replacement).
func (d *Directory) Evict(agent int, line mem.Addr) Action {
	d.check(agent)
	d.Stats.Evictions.Inc()
	e := d.entryOf(line)
	s := e.states[agent]
	e.states[agent] = Invalid
	if s == Modified || s == Owned {
		d.Stats.WriteBacks.Inc()
		return Action{Granted: Invalid, WroteBack: true}
	}
	return Action{Granted: Invalid}
}

// InvalidateAll removes every cached copy of line (used when a non-caching
// device such as a DMA engine writes memory directly) and reports whether
// dirty data had to be written back first.
func (d *Directory) InvalidateAll(line mem.Addr) Action {
	e, ok := d.lines[line]
	if !ok {
		return Action{Granted: Invalid}
	}
	var act Action
	for a, s := range e.states {
		if s == Invalid {
			continue
		}
		if s == Modified || s == Owned {
			act.WroteBack = true
			d.Stats.WriteBacks.Inc()
		}
		e.states[a] = Invalid
		act.Invalidated = append(act.Invalidated, a)
		d.Stats.Invalidations.Inc()
	}
	return act
}

// CheckInvariants verifies MOESI global invariants for every line:
// at most one M/E/O holder, M and E imply no other copies.
// It returns the first violation found, or nil.
func (d *Directory) CheckInvariants() error {
	for line, e := range d.lines {
		var nM, nE, nO, nS int
		for _, s := range e.states {
			switch s {
			case Modified:
				nM++
			case Exclusive:
				nE++
			case Owned:
				nO++
			case Shared:
				nS++
			}
		}
		if nM > 1 || nE > 1 || nO > 1 {
			return fmt.Errorf("coherence: line %#x has M=%d E=%d O=%d", uint64(line), nM, nE, nO)
		}
		if nM == 1 && (nE+nO+nS) > 0 {
			return fmt.Errorf("coherence: line %#x Modified with other copies", uint64(line))
		}
		if nE == 1 && (nM+nO+nS) > 0 {
			return fmt.Errorf("coherence: line %#x Exclusive with other copies", uint64(line))
		}
		if nM+nE+nO > 1 {
			return fmt.Errorf("coherence: line %#x has multiple owners", uint64(line))
		}
	}
	return nil
}
