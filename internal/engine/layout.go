// Package engine executes generated protocols: it instantiates cache and
// directory controllers from the ir.Protocol finite state machines, wires
// them through a virtual-channel interconnect (point-to-point ordered or
// unordered), and exposes an enabled-rule interface that the model checker
// enumerates exhaustively and the simulator drives randomly.
package engine

import (
	"fmt"

	"protogen/internal/ir"
)

// Layout is the immutable execution index of one machine: variable slots
// and transitions indexed by (state, event).
type Layout struct {
	M        *ir.Machine
	IntVars  []string       // VInt, VID and VData variables, in declaration order
	IntIdx   map[string]int // name -> slot in Ctrl.Ints
	IntInit  []int
	IntIsVID []bool // per Ints slot: does it hold a node id (remapped by symmetry)?
	VarType  map[string]ir.VarType
	SetVars  []string // VIDSet variables
	SetIdx   map[string]int
	DataVar  string // first VData variable ("" if none)
	StateIdx map[ir.StateName]int
	// StableAt[StateIdx[s]] reports whether s is a stable state — the
	// hot-path form of Machine.State(s).Kind == ir.Stable.
	StableAt []bool
	// Dense transition index for the execution hot path: evIdx maps an
	// event's string form to a compact index, transAt[stateIdx][evIdx]
	// is the candidate list — one small map probe instead of hashing a
	// (state, event) pair on every match.
	evIdx   map[string]int
	transAt [][][]*ir.Transition
}

// NewLayout indexes a machine.
func NewLayout(m *ir.Machine) *Layout {
	l := &Layout{
		M:        m,
		IntIdx:   map[string]int{},
		SetIdx:   map[string]int{},
		VarType:  map[string]ir.VarType{},
		StateIdx: map[ir.StateName]int{},
	}
	for _, v := range m.Vars {
		l.VarType[v.Name] = v.Type
		switch v.Type {
		case ir.VIDSet:
			l.SetIdx[v.Name] = len(l.SetVars)
			l.SetVars = append(l.SetVars, v.Name)
		case ir.VData:
			if l.DataVar == "" {
				l.DataVar = v.Name
			}
			l.IntIdx[v.Name] = len(l.IntVars)
			l.IntVars = append(l.IntVars, v.Name)
			l.IntInit = append(l.IntInit, 0)
			l.IntIsVID = append(l.IntIsVID, false)
		case ir.VID:
			l.IntIdx[v.Name] = len(l.IntVars)
			l.IntVars = append(l.IntVars, v.Name)
			l.IntInit = append(l.IntInit, NoID)
			l.IntIsVID = append(l.IntIsVID, true)
		default:
			l.IntIdx[v.Name] = len(l.IntVars)
			l.IntVars = append(l.IntVars, v.Name)
			l.IntInit = append(l.IntInit, v.Init)
			l.IntIsVID = append(l.IntIsVID, false)
		}
	}
	for i, n := range m.Order {
		l.StateIdx[n] = i
		st := m.Sts[n]
		l.StableAt = append(l.StableAt, st != nil && st.Kind == ir.Stable)
	}
	l.evIdx = map[string]int{}
	for i := range m.Trans {
		ev := m.Trans[i].Ev.String()
		if _, ok := l.evIdx[ev]; !ok {
			l.evIdx[ev] = len(l.evIdx)
		}
	}
	l.transAt = make([][][]*ir.Transition, len(m.Order))
	for si := range l.transAt {
		l.transAt[si] = make([][]*ir.Transition, len(l.evIdx))
	}
	for i := range m.Trans {
		t := &m.Trans[i]
		si, ei := l.StateIdx[t.From], l.evIdx[t.Ev.String()]
		l.transAt[si][ei] = append(l.transAt[si][ei], t)
	}
	return l
}

// EvIndex returns the dense index of an event's string form, or -1 when
// no transition of this machine fires on it. Hot paths resolve an event
// once and match by index (Ctrl.matchEv).
func (l *Layout) EvIndex(ev string) int {
	if i, ok := l.evIdx[ev]; ok {
		return i
	}
	return -1
}

// NoID is the null node id (an unset owner).
const NoID = -1

// ErrUnexpected marks a message arriving with no matching transition.
type ErrUnexpected struct {
	Machine string
	State   ir.StateName
	Ev      ir.Event
	Detail  string
}

func (e *ErrUnexpected) Error() string {
	return fmt.Sprintf("%s in %s: unexpected %s%s", e.Machine, e.State, e.Ev, e.Detail)
}
