package ir

import (
	"fmt"
	"strings"
)

// DeferredObligation describes what a controller owes a forwarded request
// it absorbed while mid-transaction: which response actions to execute
// (bound to the recorded requestor) when its own transaction completes.
type DeferredObligation struct {
	Fwd     MsgType  // the forwarded request that was absorbed
	Actions []Action // actions still owed (DstMsgReq/DstMsgSrc resolve to the recorded requestor)
}

// State is one state of a generated controller FSM, with the metadata the
// generator, verifier and renderer need.
type State struct {
	Name StateName
	Kind StateKind

	// Transient metadata (zero-valued for stable states).
	Origin   StateName   // stable state the transaction started from
	Target   StateName   // stable state the own transaction will reach
	Chain    []StateName // logical stable states appended by absorbed later transactions
	StateSet []StateName // directory-visible stable states the directory may currently see
	RespSeen bool        // a response proving directory ordering has been consumed
	Access   AccessType  // pending core access that started the transaction
	PosID    string      // await-position id this state embodies
	Defers   []MsgType   // forwarded-request types absorbed so far, in order
	Stale    bool        // stale-completion state (own request lost its race)
	Aliases  []StateName // names merged into this state
}

// Final returns the logical stable state the block ends in once the own
// transaction and all absorbed obligations are discharged.
func (s *State) Final() StateName {
	if len(s.Chain) > 0 {
		return s.Chain[len(s.Chain)-1]
	}
	return s.Target
}

// LogicalPath returns origin, target, then the chain.
func (s *State) LogicalPath() []StateName {
	out := []StateName{s.Origin, s.Target}
	out = append(out, s.Chain...)
	return out
}

// InSet reports whether stable state (class representative) n is in the
// state set.
func (s *State) InSet(n StateName) bool {
	for _, x := range s.StateSet {
		if x == n {
			return true
		}
	}
	return false
}

// Transition is one reaction of a generated FSM.
type Transition struct {
	From       StateName
	Ev         Event
	Guard      *Expr
	GuardLabel string // full guard qualifier (distinguishes cells)
	ColLabel   string // when-level qualifier (groups table columns)
	Actions    []Action
	Next       StateName
	Stall      bool // event is left blocking its virtual channel
	Stale      bool // generator-added stale handling (hidden in paper-style tables)
	Note       string
}

// Key identifies the table cell this transition belongs to.
func (t *Transition) Key() string {
	k := fmt.Sprintf("%s|%s", t.From, t.Ev)
	if t.GuardLabel != "" {
		k += "|" + t.GuardLabel
	}
	return k
}

// CellString renders the transition the way the paper's tables do:
// "actions/NEXT", "-/NEXT", "hit", or "stall".
func (t *Transition) CellString() string {
	if t.Stall {
		return "stall"
	}
	var acts []string
	for _, a := range t.Actions {
		switch a.Op {
		case AHit:
			if t.Next == t.From {
				return "hit"
			}
			acts = append(acts, "hit")
		case AStallMarker:
			return "stall"
		default:
			acts = append(acts, a.String())
		}
	}
	body := strings.Join(acts, "; ")
	if body == "" {
		body = "-"
	}
	if t.Next == t.From {
		return body
	}
	return body + "/" + string(t.Next)
}

// Machine is one generated controller FSM.
type Machine struct {
	Name  string
	Kind  MachineKind
	Init  StateName
	Vars  []VarDecl
	Order []StateName // deterministic presentation order
	Sts   map[StateName]*State

	// Trans lists every transition in the order it was added. Read it
	// freely; write it only through AddTransition and SetTransitions,
	// which keep idx current.
	Trans []Transition

	// DeferredActions maps each forwarded-request type to the response
	// actions owed when a deferred obligation of that type is flushed.
	DeferredActions map[MsgType][]Action

	idx transIndex
}

// transIndex locates transitions by From and by (From, Ev), as positions
// in Trans order, and records the machine's distinct events. It is
// written only by the two Trans writers and never by a read, so a
// finished machine may be read from several goroutines at once.
type transIndex struct {
	from map[StateName]*stateTrans
	evs  map[string]bool // Event.String() of every event seen
	acc  []Event         // distinct access events, sorted by Access
	msg  []Event         // distinct message events, first appearance first
}

// stateTrans indexes the transitions out of one state.
type stateTrans struct {
	all   []int32 // every one of them
	cells []cell  // one per distinct event, first appearance first
}

// cell holds the transitions out of one state on one event.
type cell struct {
	ev Event
	at []int32
}

func (st *stateTrans) cell(ev Event) *cell {
	for j := range st.cells {
		if st.cells[j].ev == ev {
			return &st.cells[j]
		}
	}
	return nil
}

// add indexes Trans[i].
func (x *transIndex) add(i int, t *Transition) {
	if x.from == nil {
		x.from = map[StateName]*stateTrans{}
		x.evs = map[string]bool{}
	}
	st := x.from[t.From]
	if st == nil {
		st = &stateTrans{}
		x.from[t.From] = st
	}
	st.all = append(st.all, int32(i))
	c := st.cell(t.Ev)
	if c == nil {
		st.cells = append(st.cells, cell{ev: t.Ev})
		c = &st.cells[len(st.cells)-1]
		x.event(t.Ev)
	}
	c.at = append(c.at, int32(i))
}

// event records ev among the machine's distinct events.
func (x *transIndex) event(ev Event) {
	s := ev.String()
	if x.evs[s] {
		return
	}
	x.evs[s] = true
	if ev.Kind != EvAccess {
		x.msg = append(x.msg, ev)
		return
	}
	j := len(x.acc)
	for j > 0 && x.acc[j-1].Access > ev.Access {
		j--
	}
	x.acc = append(x.acc, Event{})
	copy(x.acc[j+1:], x.acc[j:])
	x.acc[j] = ev
}

// NewMachine returns an empty machine of the given kind.
func NewMachine(name string, kind MachineKind) *Machine {
	return &Machine{
		Name:            name,
		Kind:            kind,
		Sts:             map[StateName]*State{},
		DeferredActions: map[MsgType][]Action{},
	}
}

// AddState registers st; it is an error to register the same name twice.
func (m *Machine) AddState(st *State) error {
	if _, ok := m.Sts[st.Name]; ok {
		return fmt.Errorf("machine %s: duplicate state %s", m.Name, st.Name)
	}
	m.Sts[st.Name] = st
	m.Order = append(m.Order, st.Name)
	return nil
}

// State returns the named state or nil.
func (m *Machine) State(n StateName) *State { return m.Sts[n] }

// StableStates lists the stable states in presentation order.
func (m *Machine) StableStates() []StateName {
	var out []StateName
	for _, n := range m.Order {
		if m.Sts[n].Kind == Stable {
			out = append(out, n)
		}
	}
	return out
}

// AddTransition appends t.
func (m *Machine) AddTransition(t Transition) {
	m.Trans = append(m.Trans, t)
	m.idx.add(len(m.Trans)-1, &m.Trans[len(m.Trans)-1])
}

// SetTransitions replaces every transition with ts, which the machine
// keeps, and re-indexes them.
func (m *Machine) SetTransitions(ts []Transition) {
	m.Trans = ts
	m.idx = transIndex{}
	for i := range ts {
		m.idx.add(i, &ts[i])
	}
}

// TransFrom returns all transitions out of state n, in Trans order.
func (m *Machine) TransFrom(n StateName) []Transition {
	if st := m.idx.from[n]; st != nil {
		return m.pick(st.all)
	}
	return nil
}

// Find returns the transitions out of n for event ev (multiple when
// guarded), in Trans order.
func (m *Machine) Find(n StateName, ev Event) []Transition {
	if st := m.idx.from[n]; st != nil {
		if c := st.cell(ev); c != nil {
			return m.pick(c.at)
		}
	}
	return nil
}

// pick copies the indexed transitions out, so a caller never aliases Trans.
func (m *Machine) pick(at []int32) []Transition {
	out := make([]Transition, len(at))
	for j, i := range at {
		out[j] = m.Trans[i]
	}
	return out
}

// Events returns every distinct event appearing in the machine, accesses
// first, then messages in first-appearance order.
func (m *Machine) Events() []Event {
	if len(m.idx.acc)+len(m.idx.msg) == 0 {
		return nil
	}
	out := make([]Event, 0, len(m.idx.acc)+len(m.idx.msg))
	return append(append(out, m.idx.acc...), m.idx.msg...)
}

// Counts reports (#states, #transitions excluding stalls and stale rules,
// #stall cells). These are the numbers §VI-B of the paper quotes.
func (m *Machine) Counts() (states, transitions, stalls int) {
	states = len(m.Sts)
	for _, t := range m.Trans {
		switch {
		case t.Stall:
			stalls++
		case t.Stale:
			// generator-added stale completion; not counted
		default:
			transitions++
		}
	}
	return
}

// Protocol is a complete generated protocol.
type Protocol struct {
	Name    string
	Ordered bool
	Msgs    []MsgDecl
	Cache   *Machine
	Dir     *Machine

	// Renames records the preprocessing renames: original forwarded
	// request -> per-class new names (paper §V-A, Tables III/IV).
	Renames map[MsgType][]MsgType

	// Reinterpret records directory-side request reinterpretation
	// (Upgrade treated as GetM at states where Upgrade is impossible).
	Reinterpret map[MsgType]MsgType

	// Classes maps each stable cache state to its directory-visible class
	// representative (MESI: E and M map to the same class).
	Classes map[StateName]StateName

	// Opts echoes the generation options for reports.
	OptsNote string
}

// MsgDeclOf returns the declaration of m.
func (p *Protocol) MsgDeclOf(m MsgType) (MsgDecl, bool) {
	for _, d := range p.Msgs {
		if d.Type == m {
			return d, true
		}
	}
	return MsgDecl{}, false
}

// ClassOf returns the directory-visible class representative of stable
// cache state s (s itself if unmapped).
func (p *Protocol) ClassOf(s StateName) StateName {
	if c, ok := p.Classes[s]; ok {
		return c
	}
	return s
}

// Acquires reports whether the cache controller implements acquire
// fences. That is the mark of a self-invalidating design such as TSO-CC,
// whose Shared copies may go stale between synchronization points: it
// is held to a weak memory model, not to single-writer/multiple-reader
// and the data-value invariant. The litmus oracle's default axiom and
// the model checker's invariants both follow from it.
func (p *Protocol) Acquires() bool {
	for _, t := range p.Cache.Trans {
		if t.Ev == AccessEvent(AccessAcq) {
			return true
		}
	}
	return false
}

// Machine returns the controller of the given kind.
func (p *Protocol) Machine(k MachineKind) *Machine {
	if k == KindDirectory {
		return p.Dir
	}
	return p.Cache
}
