package engine

import (
	"fmt"

	"protogen/internal/ir"
)

// Config tunes a System instance.
type Config struct {
	Caches   int // number of caches (the directory is one extra node)
	Capacity int // per-queue channel capacity
	Values   int // data value domain size (stores rotate 1..Values)
}

// Perform records a completed core access, for invariant checking.
type Perform struct {
	Node   int
	Access ir.AccessType
	Value  int
	// Exempt marks the paper's documented exception: the single access
	// performed when a transaction completes after its coherence epoch
	// already ended logically (IS^D_I-style states).
	Exempt bool
}

// RuleKind distinguishes the two system rule families.
type RuleKind int

// Rule kinds.
const (
	RuleAccess RuleKind = iota
	RuleDeliver
)

// Rule is one enabled system step.
type Rule struct {
	Kind   RuleKind
	Cache  int
	Access ir.AccessType
	Del    Deliverable
}

// String names the rule for traces.
func (r Rule) String() string {
	if r.Kind == RuleAccess {
		return fmt.Sprintf("cache%d: %s", r.Cache, r.Access)
	}
	return "deliver " + r.Del.Msg.String()
}

// System is a full executable instance of a generated protocol.
type System struct {
	P         *ir.Protocol
	CacheL    *Layout
	DirL      *Layout
	Cfg       Config
	Caches    []*Ctrl
	Dir       *Ctrl
	Net       *Network
	LastWrite int
	// dstBuf is resolveDst's scratch, consumed within one execSend.
	// Never shared: Clone drops it (a shallow struct copy would alias
	// the array across systems) and CloneInto keeps the target's own.
	dstBuf []int
	// touchedCtrl has bit id set for every controller (node id) a rule has
	// mutated since s was last synchronised (Clone, CloneInto, Restore,
	// RevertTo); RevertTo copies back these, and the in-flight list when
	// the network's own dirty mark says a rule sent or removed a message.
	touchedCtrl uint64
}

// NewSystem builds the initial system state.
func NewSystem(p *ir.Protocol, cfg Config) *System {
	s := &System{
		P:      p,
		CacheL: NewLayout(p, p.Cache),
		DirL:   NewLayout(p, p.Dir),
		Cfg:    cfg,
		Net:    NewNetwork(p.Ordered, cfg.Caches+1, cfg.Capacity),
	}
	for i := 0; i < cfg.Caches; i++ {
		s.Caches = append(s.Caches, NewCtrl(i, s.CacheL))
	}
	s.Dir = NewCtrl(cfg.Caches, s.DirL)
	return s
}

// DirID returns the directory's node id.
func (s *System) DirID() int { return s.Cfg.Caches }

// Clone deep-copies the mutable parts (layouts and protocol are shared).
// Controllers land in one block and their int/mask slots in two shared
// backing arrays (segment-capped, and neither ever grows after
// construction), so a clone costs a handful of allocations rather than
// several per controller. The checker clones only to build its workers'
// scratch Systems (states at rest are snapshots, see snapshot.go); the
// litmus explorer clones once per world it keeps.
func (s *System) Clone() *System {
	n := *s
	nc := len(s.Caches)
	block := make([]Ctrl, nc+1)
	ptrs := make([]*Ctrl, nc)
	intsTotal, masksTotal := len(s.Dir.Ints), len(s.Dir.Masks)
	for _, c := range s.Caches {
		intsTotal += len(c.Ints)
		masksTotal += len(c.Masks)
	}
	ints := make([]int, 0, intsTotal)
	masks := make([]uint32, 0, masksTotal)
	cloneCtrl := func(dst, src *Ctrl) {
		*dst = *src
		off := len(ints)
		ints = append(ints, src.Ints...)
		dst.Ints = ints[off:len(ints):len(ints)]
		moff := len(masks)
		masks = append(masks, src.Masks...)
		dst.Masks = masks[moff:len(masks):len(masks)]
		dst.DeferQ = append([]Msg(nil), src.DeferQ...)
	}
	for i, c := range s.Caches {
		cloneCtrl(&block[i], c)
		ptrs[i] = &block[i]
	}
	cloneCtrl(&block[nc], s.Dir)
	n.Caches = ptrs
	n.Dir = &block[nc]
	n.Net = s.Net.Clone()
	n.dstBuf = nil
	n.touchedCtrl = 0
	return &n
}

// CloneInto deep-copies s's mutable state into dst, reusing dst's
// controller and network backing arrays, and returns dst — the
// allocation-free Clone for scratch Systems. dst must be a System of
// the same protocol and configuration (typically a Clone of another
// state); passing nil falls back to Clone. After the call dst shares no
// mutable memory with s: every controller slice and the in-flight list is
// copied, so mutating either state never leaks into the other, and dst is
// synchronised with s (dst.RevertTo(s) undoes whatever dst applies next).
func (s *System) CloneInto(dst *System) *System {
	if dst == nil {
		return s.Clone()
	}
	dst.P = s.P
	dst.CacheL = s.CacheL
	dst.DirL = s.DirL
	dst.Cfg = s.Cfg
	dst.LastWrite = s.LastWrite
	for i, c := range s.Caches {
		c.CloneInto(dst.Caches[i])
	}
	s.Dir.CloneInto(dst.Dir)
	s.Net.CloneInto(dst.Net)
	dst.touchedCtrl = 0
	return dst
}

// ctrlAt returns the controller of node id.
func (s *System) ctrlAt(id int) *Ctrl {
	if id == s.DirID() {
		return s.Dir
	}
	return s.Caches[id]
}

// typeIndex returns the index of m's type in Protocol.Msgs: the stamp
// every message the system itself sent or restored carries, or, for a
// hand-built one, a scan by name; -1 when the protocol never declared it.
func (s *System) typeIndex(m *Msg) int {
	if m.tIdx > 0 {
		return m.tIdx - 1
	}
	for i := range s.P.Msgs {
		if string(s.P.Msgs[i].Type) == m.Type {
			return i
		}
	}
	return -1
}

// Rules enumerates every enabled rule, deterministically ordered.
func (s *System) Rules() []Rule {
	return s.AppendRules(nil)
}

// AppendRules appends every enabled rule to buf in the same deterministic
// order as Rules, reusing buf's backing array — the allocation-free form
// for the checker's expansion loop. Enabledness comes from the layouts'
// tables; a transition's guard is evaluated only where one decides.
// Deliverables are enumerated inline (Network.AppendDeliverables' walk
// and order) so no intermediate slice is built.
func (s *System) AppendRules(buf []Rule) []Rule {
	for i, c := range s.Caches {
		if c.StIdx < 0 {
			continue // an undeclared state has no transitions
		}
		free, guard := c.L.accessFree[c.StIdx], c.L.accessGuard[c.StIdx]
		if free|guard == 0 {
			continue
		}
		for j, a := range c.L.accesses {
			bit := uint32(1) << uint(j)
			if free&bit != 0 || guard&bit != 0 && s.accessEnabled(c, a) {
				buf = append(buf, Rule{Kind: RuleAccess, Cache: i, Access: a})
			}
		}
	}
	n := s.Net
	queue, pos := -1, 0
	for i := range n.msgs {
		m := &n.msgs[i]
		if q := n.QueueOf(m); q != queue {
			queue, pos = q, 0
		} else {
			pos++
		}
		if (pos == 0 || !n.Ordered) && s.deliverEnabled(m) {
			buf = append(buf, Rule{Kind: RuleDeliver, Del: Deliverable{Queue: queue, Pos: pos, Msg: *m}})
		}
	}
	return buf
}

// accessEnabled reports whether issuing access a at cache c makes progress
// (starts a transaction, silently transitions, or is a store hit that
// mutates data). Pure load hits are invariant-checked, not enumerated.
// It evaluates guards; AppendRules asks it only where one decides.
func (s *System) accessEnabled(c *Ctrl, a ir.AccessType) bool {
	t, ok, err := c.matchEv(c.L.accessEvent(a), nil)
	return err == nil && ok && accessProgresses(t, a)
}

// accessProgresses reports whether t, the transition access a matched,
// makes progress: it does not stall, and it changes state or is a store
// hit.
func accessProgresses(t *trans, a ir.AccessType) bool {
	return !t.Stall && (t.Next != t.From || (a == ir.AccessStore && t.hit))
}

// deliverEnabled reports whether delivering m makes progress: its
// target's matched transition is not a stall. A message that matches no
// transition, or two, stays enabled so that Apply reports the error.
func (s *System) deliverEnabled(m *Msg) bool {
	c := s.ctrlAt(m.Dst)
	evi := c.L.msgEvent(m)
	if evi < 0 || c.StIdx < 0 {
		return true // no transition at all: unexpected
	}
	switch c.L.deliverAt[c.StIdx][evi] {
	case deliverStall:
		return false
	case deliverGuard:
		return deliverMatched(c, evi, m)
	}
	return true
}

// deliverMatched is deliverEnabled by evaluating c's guards for m on
// event evi.
func deliverMatched(c *Ctrl, evi int, m *Msg) bool {
	t, ok, err := c.matchEv(evi, m)
	return err != nil || !ok || !t.Stall
}

// Apply executes one rule, returning the performed accesses.
func (s *System) Apply(r Rule) ([]Perform, error) {
	switch r.Kind {
	case RuleAccess:
		return s.applyAccess(s.Caches[r.Cache], r.Access)
	case RuleDeliver:
		m := r.Del.Msg
		c := s.ctrlAt(m.Dst)
		t, ok, err := c.matchEv(c.L.msgEvent(&m), &m)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, &ErrUnexpected{Machine: fmt.Sprintf("%s %d", c.L.M.Name, c.ID), State: c.State, Ev: ir.MsgEvent(ir.MsgType(m.Type)), Detail: " " + m.String()} // vethotpath:ignore — cold: building the error that ends the run
		}
		if t.Stall {
			return nil, nil // blocked; state unchanged
		}
		s.Net.Remove(r.Del)
		performs, err := s.exec(c, t, &m)
		if err != nil {
			return nil, err
		}
		more, err := s.drainDirDefers()
		return append(performs, more...), err
	}
	return nil, fmt.Errorf("bad rule")
}

func (s *System) applyAccess(c *Ctrl, a ir.AccessType) ([]Perform, error) {
	t, ok, err := c.matchEv(c.L.accessEvent(a), nil)
	if err != nil {
		return nil, err
	}
	if !ok || t.Stall {
		return nil, fmt.Errorf("access %s not enabled at cache %d", a, c.ID)
	}
	if t.Next != t.From {
		// Starting a transaction (or a silent transition): remember the
		// pending access so APerform can complete it later.
		c.Pend = a
	}
	return s.exec(c, t, nil)
}

// drainDirDefers implements the replay rule: whenever the directory is in
// a stable state with deferred requests, it processes them (FIFO) before
// touching the network again.
func (s *System) drainDirDefers() ([]Perform, error) {
	var out []Perform
	for len(s.Dir.DeferQ) > 0 {
		if s.Dir.StIdx < 0 || !s.Dir.L.StableAt[s.Dir.StIdx] {
			return out, nil
		}
		m := s.Dir.DeferQ[0]
		s.touchedCtrl |= 1 << uint(s.Dir.ID)
		s.Dir.DeferQ = s.Dir.DeferQ[1:]
		t, ok, err := s.Dir.matchEv(s.Dir.L.msgEvent(&m), &m)
		if err != nil {
			return out, err
		}
		if !ok {
			return out, &ErrUnexpected{Machine: "directory(replay)", State: s.Dir.State, Ev: ir.MsgEvent(ir.MsgType(m.Type))}
		}
		if t.Stall {
			// Put it back; a stalling directory keeps it queued.
			s.Dir.DeferQ = append([]Msg{m}, s.Dir.DeferQ...)
			return out, nil
		}
		p, err := s.exec(s.Dir, t, &m)
		out = append(out, p...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// exec runs a transition's actions and performs the state change.
func (s *System) exec(c *Ctrl, t *trans, m *Msg) ([]Perform, error) {
	var performs []Perform
	// Before the first action: a failing action leaves c half-updated.
	// (applyAccess's Pend write is covered too — it always gets here.)
	s.touchedCtrl |= 1 << uint(c.ID)
	for i := range t.actions {
		p, err := s.execAction(c, &t.actions[i], m, t)
		if err != nil {
			return performs, err
		}
		if performs == nil {
			performs = p // perform's own fresh slice: no second copy of the usual one access
		} else {
			performs = append(performs, p...)
		}
	}
	c.State = t.Next
	c.StIdx = t.next // -1 for an undeclared target: no transitions out of it
	// Transaction completion: returning to a stable state clears the
	// pending access.
	if c.L.M.Kind == ir.KindCache && c.StIdx >= 0 && c.L.StableAt[c.StIdx] {
		c.Pend = ir.AccessNone
	}
	return performs, nil
}

func (s *System) execAction(c *Ctrl, a *action, m *Msg, t *trans) ([]Perform, error) {
	switch a.Op {
	case ir.ASend:
		return nil, s.execSend(c, a, m)
	case ir.ASet:
		v, err := c.eval(a.expr, m)
		if err != nil {
			return nil, err
		}
		if a.slot < 0 {
			return nil, fmt.Errorf("set of unknown variable %s", a.Var)
		}
		c.Ints[a.slot] = v
		return nil, nil
	case ir.ASetAdd, ir.ASetDel:
		if a.slot < 0 {
			return nil, fmt.Errorf("set op on unknown set %s", a.Var)
		}
		v, err := c.eval(a.expr, m)
		if err != nil {
			return nil, err
		}
		if v >= 0 {
			if a.Op == ir.ASetAdd {
				c.Masks[a.slot] |= 1 << uint(v)
			} else {
				c.Masks[a.slot] &^= 1 << uint(v)
			}
		}
		return nil, nil
	case ir.ASetClear:
		if a.slot < 0 {
			return nil, fmt.Errorf("clear of unknown set %s", a.Var)
		}
		c.Masks[a.slot] = 0
		return nil, nil
	case ir.ACopyData, ir.AWriteback:
		if m == nil || !m.HasData {
			return nil, fmt.Errorf("%s %d in %s: %s without data payload", c.L.M.Name, c.ID, c.State, a)
		}
		c.SetData(m.Data)
		return nil, nil
	case ir.ADefer:
		if m == nil {
			return nil, fmt.Errorf("defer outside a message event")
		}
		if len(c.DeferQ) > s.Cfg.Caches+2 {
			return nil, fmt.Errorf("%s %d: defer queue overflow", c.L.M.Name, c.ID)
		}
		c.DeferQ = append(c.DeferQ, *m)
		return nil, nil
	case ir.AFlush:
		var performs []Perform
		q := c.DeferQ
		c.DeferQ = nil
		for i := range q {
			var acts []action
			if ti := s.typeIndex(&q[i]); ti >= 0 {
				acts = c.L.deferred[ti]
			}
			if acts == nil {
				return performs, fmt.Errorf("flush: no deferred actions for %s", q[i].Type)
			}
			for j := range acts {
				dm := q[i]
				if _, err := s.execAction(c, &acts[j], &dm, t); err != nil {
					return performs, err
				}
			}
		}
		return performs, nil
	case ir.APerform:
		return s.perform(c, c.Pend, t.exempt)
	case ir.AHit:
		var acc ir.AccessType
		if t.Ev.Kind == ir.EvAccess {
			acc = t.Ev.Access
		}
		return s.perform(c, acc, t.exempt)
	case ir.AStallMarker, ir.AReplay:
		return nil, nil
	}
	return nil, fmt.Errorf("unknown action %v", a.Op)
}

// perform completes an access: stores write a fresh value, loads read the
// block. The exemption flag marks completion-time accesses whose epoch
// logically ended (chain or stale states).
func (s *System) perform(c *Ctrl, acc ir.AccessType, exempt bool) ([]Perform, error) {
	switch acc {
	case ir.AccessStore:
		v := s.LastWrite%s.Cfg.Values + 1
		c.SetData(v)
		s.LastWrite = v
		return []Perform{{Node: c.ID, Access: acc, Value: v, Exempt: exempt}}, nil
	case ir.AccessLoad:
		return []Perform{{Node: c.ID, Access: acc, Value: c.Data(), Exempt: exempt}}, nil
	default:
		return nil, nil // replacements, acquires and vanished accesses do nothing
	}
}

// execSend constructs and enqueues the message(s) of one send action.
func (s *System) execSend(c *Ctrl, a *action, m *Msg) error {
	if a.meta.tIdx == 0 {
		return fmt.Errorf("send of undeclared message %s", a.Msg)
	}
	base := Msg{Type: string(a.Msg), Src: c.ID, Req: NoID, Class: a.meta.class, tIdx: a.meta.tIdx}
	if a.Payload.WithData {
		base.HasData = true
		base.Data = c.Data()
	}
	if a.acks != nil {
		v, err := c.eval(a.acks, m)
		if err != nil {
			return err
		}
		base.Acks = v
	}
	if a.req != nil {
		v, err := c.eval(a.req, m)
		if err != nil {
			return err
		}
		base.Req = v
	}
	dsts, err := s.resolveDst(c, a, m)
	if err != nil {
		return err
	}
	for _, d := range dsts {
		base.Dst = d
		if err := s.Net.Send(base); err != nil {
			return err
		}
	}
	return nil
}

// resolveDst resolves a send action's destination id(s). The returned
// slice aliases s.dstBuf and is valid until the next resolveDst call.
func (s *System) resolveDst(c *Ctrl, a *action, m *Msg) ([]int, error) {
	buf := s.dstBuf[:0]
	switch a.Dst {
	case ir.DstDir:
		s.dstBuf = append(buf, s.DirID())
		return s.dstBuf, nil
	case ir.DstMsgSrc:
		if m == nil {
			return nil, fmt.Errorf("send to msg.src outside a message event")
		}
		s.dstBuf = append(buf, m.Src)
		return s.dstBuf, nil
	case ir.DstMsgReq, ir.DstDeferred:
		if m == nil {
			return nil, fmt.Errorf("send to requestor outside a message event")
		}
		if m.Req != NoID {
			s.dstBuf = append(buf, m.Req)
		} else {
			s.dstBuf = append(buf, m.Src)
		}
		return s.dstBuf, nil
	case ir.DstOwner:
		if c.L.ownerSlot < 0 {
			return nil, fmt.Errorf("send to owner without an owner variable")
		}
		o := c.Ints[c.L.ownerSlot]
		if o == NoID {
			return nil, fmt.Errorf("send to owner while owner is unset")
		}
		s.dstBuf = append(buf, o)
		return s.dstBuf, nil
	case ir.DstSharers:
		if len(c.L.SetVars) == 0 {
			return nil, fmt.Errorf("send to sharers without a sharer set")
		}
		mask := c.Masks[0]
		for i := 0; i < s.Cfg.Caches+1; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if a.ExceptSrc && m != nil && i == m.Src {
				continue
			}
			buf = append(buf, i)
		}
		s.dstBuf = buf
		return s.dstBuf, nil
	}
	return nil, fmt.Errorf("bad destination %v", a.Dst)
}

// LoadCheck lists the caches that can currently hit on a load along with
// the value they would read — the verifier checks these against LastWrite.
type LoadCheck struct {
	Cache int
	Value int
	State ir.StateName
}

// AppendHitLoads appends the load-hit-capable caches to buf, reusing its
// backing array (the checker calls this once per discovered state).
func (s *System) AppendHitLoads(buf []LoadCheck) []LoadCheck {
	out := buf
	for i, c := range s.Caches {
		t, ok, err := c.matchEv(c.L.accessEvent(ir.AccessLoad), nil)
		if err != nil || !ok || t.Stall {
			continue
		}
		if t.hit && t.Next == t.From {
			out = append(out, LoadCheck{Cache: i, Value: c.Data(), State: c.State})
		}
	}
	return out
}
