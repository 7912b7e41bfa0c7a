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
// and transitions indexed by (state, event), with every name a transition
// mentions — its next state, the variables and sets of its guard, actions
// and payload expressions, the messages it sends — resolved to an index
// when the layout is built. Executing a rule hashes no name.
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
	// dataSlot and ownerSlot are the Ints slots of DataVar and of the
	// directory's "owner" variable, -1 when the machine has none.
	dataSlot, ownerSlot int
	// Dense transition index: evIdx maps an event's string form to a
	// compact index and transAt[stateIdx][evIdx] is the candidate list.
	// msgEv (by Protocol.Msgs index, what a sent message is stamped with)
	// and accessEv (by access type) hold the event indices, -1 where the
	// machine never fires on the event, so a step probes evIdx only for a
	// hand-built message; accesses lists the access types it does fire on.
	evIdx    map[string]int
	transAt  [][][]*trans
	msgEv    []int
	accessEv [ir.AccessAcq + 1]int
	accesses []ir.AccessType
	// deferred[i] is Machine.DeferredActions of message type i, resolved;
	// nil when the machine owes nothing for it.
	deferred [][]action
	// Enabledness, decided once per (state, event) so that rule
	// enumeration evaluates a guard only where one decides. Per state
	// index: accessFree has bit i set when access accesses[i] is enabled
	// with no guard to evaluate, accessGuard when a guard decides; an
	// access in neither mask is disabled. Per state index and dense event
	// index, deliverAt holds a delivery's code (System.AppendRules).
	accessFree, accessGuard []uint32
	deliverAt               [][]deliverCode
}

// deliverCode is what delivering a message on one (state, event) does
// before its guards are read.
type deliverCode uint8

const (
	// deliverFree: enabled with no guard to evaluate — no transition,
	// one unguarded non-stall, or an ambiguous unguarded pair (the first
	// and last of which Apply reports as errors).
	deliverFree  deliverCode = iota
	deliverStall             // one unguarded stall
	deliverGuard             // a guard decides: ask matchEv
)

// trans is one transition of the machine, resolved against its layout.
type trans struct {
	*ir.Transition
	guard   *expr
	actions []action
	next    int  // StateIdx[Next]; -1 when the machine never declared it
	exempt  bool // From carries a chain or is stale: its performs are exempt
	hit     bool // some action is an AHit
}

// action is an ir.Action with its variable, expressions and message type
// resolved. A name the machine or protocol never declared resolves to -1
// (a zero msgMeta) and fails when the action runs, as it always did.
type action struct {
	ir.Action
	slot      int     // Var's slot: Ctrl.Ints for ASet, Ctrl.Masks for the set ops
	expr      *expr   // Expr
	acks, req *expr   // Payload.Acks, Payload.Req
	meta      msgMeta // ASend: Msg's class and stamp
}

// msgMeta is the per-message-type execution metadata a send action is
// resolved to when its layout is built: virtual-channel class and the
// stamped type index (plus one; see Msg.tIdx — zero marks a message type
// the protocol never declared).
type msgMeta struct {
	class int
	tIdx  int
}

// expr is an ir.Expr with its name resolved: n is the literal of an
// EConst, the Ctrl.Ints slot of an EVar, the Ctrl.Masks slot of an ECount
// or EInSet and the msgField of an EField; -1 when the name is unknown.
type expr struct {
	kind ir.ExprKind
	op   ir.BinOp
	n    int
	name string // for the unknown-name errors
	l, r *expr
}

// The msgField codes.
const (
	fieldSrc = iota
	fieldReq
	fieldAcks
	fieldData
)

// NewLayout indexes machine m of protocol p.
func NewLayout(p *ir.Protocol, m *ir.Machine) *Layout {
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
	l.dataSlot, l.ownerSlot = slot(l.IntIdx, l.DataVar), slot(l.IntIdx, "owner")
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
	for a := range l.accessEv {
		l.accessEv[a] = l.EvIndex(ir.AccessType(a).String())
	}
	l.msgEv = make([]int, len(p.Msgs))
	meta := make(map[ir.MsgType]msgMeta, len(p.Msgs))
	for i, d := range p.Msgs {
		l.msgEv[i] = l.EvIndex(string(d.Type))
		meta[d.Type] = msgMeta{class: int(d.Class), tIdx: i + 1}
	}
	l.deferred = make([][]action, len(p.Msgs))
	for i, d := range p.Msgs {
		if as := m.DeferredActions[d.Type]; as != nil {
			l.deferred[i] = l.newActions(as, meta)
		}
	}
	l.transAt = make([][][]*trans, len(m.Order))
	for si := range l.transAt {
		l.transAt[si] = make([][]*trans, len(l.evIdx))
	}
	seen := map[ir.AccessType]bool{}
	resolved := make([]trans, len(m.Trans))
	for i := range m.Trans {
		t := &m.Trans[i]
		if t.Ev.Kind == ir.EvAccess && !seen[t.Ev.Access] {
			seen[t.Ev.Access] = true
			l.accesses = append(l.accesses, t.Ev.Access)
		}
		rt := &resolved[i]
		*rt = trans{
			Transition: t,
			guard:      l.newExpr(t.Guard),
			actions:    l.newActions(t.Actions, meta),
			next:       -1,
		}
		if si, ok := l.StateIdx[t.Next]; ok {
			rt.next = si
		}
		if from := m.Sts[t.From]; from != nil {
			rt.exempt = len(from.Chain) > 0 || from.Stale
		}
		for _, a := range t.Actions {
			rt.hit = rt.hit || a.Op == ir.AHit
		}
		si, ei := l.StateIdx[t.From], l.evIdx[t.Ev.String()]
		l.transAt[si][ei] = append(l.transAt[si][ei], rt)
	}
	l.indexEnabledness()
	return l
}

// indexEnabledness fills accessFree, accessGuard and deliverAt from
// transAt with matchEv's semantics: a guarded candidate leaves the
// decision to matchEv; otherwise no candidate matches, one does, or two
// unguarded ones make the event ambiguous — a disabled access and an
// enabled delivery, whose Apply reports the error.
func (l *Layout) indexEnabledness() {
	l.accessFree = make([]uint32, len(l.transAt))
	l.accessGuard = make([]uint32, len(l.transAt))
	l.deliverAt = make([][]deliverCode, len(l.transAt))
	guarded := func(cands []*trans) bool {
		for _, t := range cands {
			if t.guard != nil {
				return true
			}
		}
		return false
	}
	for si, byEv := range l.transAt {
		for i, a := range l.accesses {
			switch cands := byEv[l.accessEv[a]]; {
			case guarded(cands):
				l.accessGuard[si] |= 1 << uint(i)
			case len(cands) == 1 && accessProgresses(cands[0], a):
				l.accessFree[si] |= 1 << uint(i)
			}
		}
		l.deliverAt[si] = make([]deliverCode, len(byEv))
		for ei, cands := range byEv {
			switch {
			case guarded(cands):
				l.deliverAt[si][ei] = deliverGuard
			case len(cands) == 1 && cands[0].Stall:
				l.deliverAt[si][ei] = deliverStall
			}
		}
	}
}

// slot returns idx[name], or -1 for a name never declared. It is the
// by-name lookup NewLayout resolves through; a step never calls it.
func slot(idx map[string]int, name string) int {
	if i, ok := idx[name]; ok { //vethotpath:ignore — the lookup itself: HP004 flags its callers outside constructors
		return i
	}
	return -1
}

// msgFields are the message fields an EField can name.
var msgFields = map[string]int{"src": fieldSrc, "req": fieldReq, "acks": fieldAcks, "data": fieldData}

func (l *Layout) newActions(as []ir.Action, meta map[ir.MsgType]msgMeta) []action {
	out := make([]action, len(as))
	for i, a := range as {
		out[i] = action{
			Action: a,
			slot:   -1,
			expr:   l.newExpr(a.Expr),
			acks:   l.newExpr(a.Payload.Acks),
			req:    l.newExpr(a.Payload.Req),
			meta:   meta[a.Msg],
		}
		switch a.Op {
		case ir.ASet:
			out[i].slot = slot(l.IntIdx, a.Var)
		case ir.ASetAdd, ir.ASetDel, ir.ASetClear:
			out[i].slot = slot(l.SetIdx, a.Var)
		}
	}
	return out
}

func (l *Layout) newExpr(e *ir.Expr) *expr {
	if e == nil {
		return nil
	}
	x := &expr{kind: e.Kind, op: e.Op, n: e.Int, name: e.Name, l: l.newExpr(e.L), r: l.newExpr(e.R)}
	switch e.Kind {
	case ir.EVar:
		x.n = slot(l.IntIdx, e.Name)
	case ir.ECount, ir.EInSet:
		x.n = slot(l.SetIdx, e.Name)
	case ir.EField:
		x.n = slot(msgFields, e.Name)
	}
	return x
}

// EvIndex returns the dense index of an event's string form, or -1 when
// no transition of this machine fires on it. Steps read the resolved
// msgEv/accessEv tables instead; this is what fills them.
func (l *Layout) EvIndex(ev string) int {
	return slot(l.evIdx, ev)
}

// msgEvent returns the dense event index of m's arrival at this machine.
func (l *Layout) msgEvent(m *Msg) int {
	if m.tIdx > 0 {
		return l.msgEv[m.tIdx-1]
	}
	return l.EvIndex(m.Type) //vethotpath:ignore — cold: hand-built (unstamped) messages exist only in tests
}

// accessEvent returns the dense event index of core access a.
func (l *Layout) accessEvent(a ir.AccessType) int {
	if a < 0 || int(a) >= len(l.accessEv) {
		return -1
	}
	return l.accessEv[a]
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
