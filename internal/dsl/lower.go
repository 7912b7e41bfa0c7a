package dsl

import (
	"fmt"

	"protogen/internal/ir"
)

// Lower turns a parsed File into the ir.Spec consumed by the generator.
func Lower(f *File) (*ir.Spec, error) {
	spec := &ir.Spec{Name: f.Protocol, Ordered: f.Ordered}
	msgClass := map[string]ir.MsgClass{}
	for _, m := range f.Messages {
		if _, dup := msgClass[m.Name]; dup {
			return nil, fmt.Errorf("dsl: duplicate message %s", m.Name)
		}
		msgClass[m.Name] = m.Class
		spec.Msgs = append(spec.Msgs, ir.MsgDecl{Type: ir.MsgType(m.Name), Class: m.Class, Put: m.Put})
	}
	lw := &lowerer{msgClass: msgClass}
	for _, m := range f.Machines {
		ms := &ir.MachineSpec{
			Name: m.Role.String(),
			Kind: m.Role,
			Init: ir.StateName(m.Init),
			Vars: m.Vars,
		}
		for _, s := range m.States {
			ms.Stable = append(ms.Stable, ir.StableDecl{Name: ir.StateName(s)})
		}
		if m.Role == ir.KindDirectory {
			if spec.Dir != nil {
				return nil, fmt.Errorf("dsl: duplicate directory machine")
			}
			spec.Dir = ms
		} else {
			if spec.Cache != nil {
				return nil, fmt.Errorf("dsl: duplicate cache machine")
			}
			spec.Cache = ms
		}
	}
	if spec.Cache == nil || spec.Dir == nil {
		return nil, fmt.Errorf("dsl: protocol needs one cache and one directory machine")
	}
	for _, a := range f.Archs {
		ms := spec.Machine(a.Role)
		for _, proc := range a.Procs {
			txn, err := lw.lowerProcess(ms, proc)
			if err != nil {
				return nil, err
			}
			ms.Txns = append(ms.Txns, txn)
		}
	}
	if err := ir.ValidateSpec(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

// Parse parses and lowers DSL source in one step.
func Parse(src string) (*ir.Spec, error) {
	f, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	return Lower(f)
}

type lowerer struct {
	msgClass map[string]ir.MsgClass
}

var accessNames = map[string]ir.AccessType{
	"load": ir.AccessLoad, "store": ir.AccessStore,
	"repl": ir.AccessRepl, "acq": ir.AccessAcq,
}

func (lw *lowerer) lowerProcess(ms *ir.MachineSpec, pd *ProcessDecl) (*ir.Transaction, error) {
	txn := &ir.Transaction{
		Start: ir.StateName(pd.State),
		Src:   pd.From,
	}
	if a, ok := accessNames[pd.Trigger]; ok {
		if ms.Kind == ir.KindDirectory {
			return nil, errAt(pd.Tok, "directory process cannot be triggered by access %s", pd.Trigger)
		}
		txn.Trigger = ir.AccessEvent(a)
	} else {
		txn.Trigger = ir.MsgEvent(ir.MsgType(pd.Trigger))
	}
	txn.ID = ir.TxnID(txn.Start, txn.Trigger)

	outs, hit, err := lw.lowerSeq(pd.Body, nil, nil, nil, txn.ID, newCounter())
	if err != nil {
		return nil, err
	}
	txn.Hit = hit
	if len(outs) != 1 {
		return nil, errAt(pd.Tok, "process (%s, %s): conditional top-level outcomes are not supported (found %d)", pd.State, pd.Trigger, len(outs))
	}
	o := outs[0]
	txn.InitActions = o.actions
	switch o.kind {
	case ir.CaseBreak:
		txn.Final = o.final
	case ir.CaseLoop:
		txn.Final = txn.Start // no state change
	case ir.CaseAwait:
		txn.Await = o.sub
	}
	// Extract the request message from the initial sends.
	for _, a := range txn.InitActions {
		if a.Op != ir.ASend {
			continue
		}
		if lw.msgClass[string(a.Msg)] == ir.ClassRequest {
			if txn.Request != "" {
				return nil, errAt(pd.Tok, "process (%s, %s): more than one request send", pd.State, pd.Trigger)
			}
			if a.Dst != ir.DstDir {
				return nil, errAt(pd.Tok, "process (%s, %s): requests must be sent to dir", pd.State, pd.Trigger)
			}
			txn.Request = a.Msg
		}
	}
	if txn.Hit && (txn.Await != nil || txn.Request != "") {
		return nil, errAt(pd.Tok, "process (%s, %s): 'hit' cannot be combined with requests or awaits", pd.State, pd.Trigger)
	}
	if txn.Hit && txn.Final == "" {
		txn.Final = txn.Start
	}
	return txn, nil
}

// outcome is one guarded control path through a statement sequence.
type outcome struct {
	guard   *ir.Expr
	actions []ir.Action
	kind    ir.CaseKind
	final   ir.StateName
	sub     *ir.Await
}

type counter struct{ n int }

func newCounter() *counter { return &counter{} }

func (c *counter) next() int { c.n++; return c.n - 1 }

// lowerSeq lowers a statement sequence into its guarded outcomes.
// Guards of `if` statements that follow assignments are rewritten in terms
// of the pre-case state by substituting the assignments seen so far, so
// that they can be evaluated at message-arrival time (Listing 1's
// "acksExpected = GetM_Ack.acksExpected; if acksExpected == acksReceived"
// becomes the arrival-time guard "msg.acks == acksReceived").
// hit reports whether a top-level `hit;` statement was seen.
func (lw *lowerer) lowerSeq(stmts []Stmt, guard *ir.Expr, acts []ir.Action, subst map[string]*ir.Expr, txnID string, ids *counter) (outs []outcome, hit bool, err error) {
	acts = append([]ir.Action(nil), acts...)
	sub := map[string]*ir.Expr{}
	for k, v := range subst {
		sub[k] = v
	}
	for i, s := range stmts {
		switch s.Kind {
		case StState:
			if i != len(stmts)-1 {
				return nil, false, errAt(s.Tok, "'state = %s' must be the last statement of its block", s.State)
			}
			return []outcome{{guard: guard, actions: acts, kind: ir.CaseBreak, final: ir.StateName(s.State)}}, hit, nil
		case StAwait:
			if i != len(stmts)-1 {
				return nil, false, errAt(s.Tok, "'await' must be the last statement of its block")
			}
			subAwait, err := lw.lowerAwait(&s, txnID, ids)
			if err != nil {
				return nil, false, err
			}
			return []outcome{{guard: guard, actions: acts, kind: ir.CaseAwait, sub: subAwait}}, hit, nil
		case StIf:
			rest := stmts[i+1:]
			cond := substitute(s.Cond, sub)
			neg, err := negate(cond)
			if err != nil {
				return nil, false, errAt(s.Tok, "cannot negate condition: %v", err)
			}
			thenSeq := append([]Stmt(nil), s.Then...)
			if !endsTerminal(s.Then) {
				thenSeq = append(thenSeq, rest...)
			}
			elseSeq := append([]Stmt(nil), s.Else...)
			if !endsTerminal(s.Else) {
				elseSeq = append(elseSeq, rest...)
			}
			thenOuts, h1, err := lw.lowerSeq(thenSeq, conj(guard, cond), acts, sub, txnID, ids)
			if err != nil {
				return nil, false, err
			}
			elseOuts, h2, err := lw.lowerSeq(elseSeq, conj(guard, neg), acts, sub, txnID, ids)
			if err != nil {
				return nil, false, err
			}
			return append(thenOuts, elseOuts...), hit || h1 || h2, nil
		case StHit:
			hit = true
		default:
			a, err := lw.stmtAction(&s)
			if err != nil {
				return nil, false, err
			}
			if a.Op == ir.ASet {
				sub[a.Var] = substitute(a.Expr, sub)
			}
			acts = append(acts, a)
		}
	}
	return []outcome{{guard: guard, actions: acts, kind: ir.CaseLoop}}, hit, nil
}

// endsTerminal reports whether a statement sequence always ends in a
// state change or an await (so control never falls through).
func endsTerminal(stmts []Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	last := stmts[len(stmts)-1]
	switch last.Kind {
	case StState, StAwait:
		return true
	case StIf:
		return endsTerminal(last.Then) && endsTerminal(last.Else)
	}
	return false
}

// substitute rewrites variable references per the assignment map.
func substitute(e *ir.Expr, sub map[string]*ir.Expr) *ir.Expr {
	if e == nil {
		return nil
	}
	if e.Kind == ir.EVar {
		if r, ok := sub[e.Name]; ok {
			return r.Clone()
		}
	}
	c := *e
	c.L = substitute(e.L, sub)
	c.R = substitute(e.R, sub)
	return &c
}

func (lw *lowerer) lowerAwait(s *Stmt, txnID string, ids *counter) (*ir.Await, error) {
	aw := &ir.Await{ID: fmt.Sprintf("%s/a%d", txnID, ids.next())}
	for _, w := range s.Whens {
		outs, hit, err := lw.lowerSeq(w.Body, w.Guard, nil, nil, txnID, ids)
		if err != nil {
			return nil, err
		}
		if hit {
			return nil, errAt(w.Tok, "'hit' is not allowed inside await")
		}
		for _, o := range outs {
			c := &ir.Case{
				Msg:        ir.MsgType(w.Msg),
				Guard:      o.guard,
				GuardLabel: ir.GuardLabel(o.guard),
				WhenLabel:  ir.GuardLabel(w.Guard),
				Actions:    o.actions,
				Kind:       o.kind,
				Final:      o.final,
				Sub:        o.sub,
			}
			aw.Cases = append(aw.Cases, c)
		}
	}
	return aw, nil
}

func (lw *lowerer) stmtAction(s *Stmt) (ir.Action, error) {
	switch s.Kind {
	case StSend:
		return ir.Action{
			Op:        ir.ASend,
			Msg:       ir.MsgType(s.Msg),
			Dst:       s.Dst,
			ExceptSrc: s.DstExcept,
			Payload:   ir.Payload{WithData: s.WithData, Acks: s.Acks, Req: s.Req},
		}, nil
	case StAssign:
		return ir.SetVar(s.Var, s.Expr), nil
	case StSetAdd:
		return ir.Action{Op: ir.ASetAdd, Var: s.Var, Expr: s.Expr}, nil
	case StSetDel:
		return ir.Action{Op: ir.ASetDel, Var: s.Var, Expr: s.Expr}, nil
	case StSetClear:
		return ir.Action{Op: ir.ASetClear, Var: s.Var}, nil
	case StCopyData:
		return ir.Action{Op: ir.ACopyData}, nil
	case StWriteback:
		return ir.Action{Op: ir.AWriteback}, nil
	}
	return ir.Action{}, errAt(s.Tok, "statement not allowed here")
}

// conj conjoins two optional guards.
func conj(a, b *ir.Expr) *ir.Expr {
	switch {
	case a == nil:
		return b.Clone()
	case b == nil:
		return a.Clone()
	}
	return ir.Binop(ir.OpAnd, a.Clone(), b.Clone())
}

var negOps = map[ir.BinOp]ir.BinOp{
	ir.OpEq: ir.OpNe, ir.OpNe: ir.OpEq,
	ir.OpLt: ir.OpGe, ir.OpGe: ir.OpLt,
	ir.OpGt: ir.OpLe, ir.OpLe: ir.OpGt,
}

// negate returns the logical negation of a comparison/boolean expression.
func negate(e *ir.Expr) (*ir.Expr, error) {
	if e == nil {
		return nil, fmt.Errorf("nil condition")
	}
	if e.Kind == ir.EBinop {
		if op, ok := negOps[e.Op]; ok {
			return ir.Binop(op, e.L.Clone(), e.R.Clone()), nil
		}
		switch e.Op {
		case ir.OpAnd, ir.OpOr:
			l, err := negate(e.L)
			if err != nil {
				return nil, err
			}
			r, err := negate(e.R)
			if err != nil {
				return nil, err
			}
			op := ir.OpOr
			if e.Op == ir.OpOr {
				op = ir.OpAnd
			}
			return ir.Binop(op, l, r), nil
		}
	}
	return nil, fmt.Errorf("expression %s is not a condition", e)
}
