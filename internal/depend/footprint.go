// Package depend derives a static rule-dependence analysis from a
// generated ir.Protocol: per-rule-class read/write footprints, an
// invariant-visibility classification, and an id-flow taint analysis.
// Together these power the checker's partial-order reduction
// (internal/verify, Config.Reduce) and the PG3xx lint diagnostics
// (internal/analyze, protogen lint -dep-stats).
//
// The unit of analysis is the rule class: a (machine kind, state, event)
// triple. Every concrete rule the engine enumerates — an access at cache
// i, or the delivery of a message to node n — instantiates exactly one
// class at one node. The analysis is conservative: a class is dependent
// on everything ("pessimized") unless each of its possible transitions is
// proven to leave every checked predicate unchanged and to touch only the
// executing node's private slots. The default is always the safe answer;
// the reasons for pessimization are preserved for the lint surface.
package depend

import (
	"fmt"

	"protogen/internal/ir"
)

// Visibility classifies one rule class with respect to the checked
// invariants (SWMR, data-value, hit-load checks) and the error verdict.
// A visible class may change the truth of a predicate the checker
// evaluates per state (or may fail with an execution error, which is a
// verdict of its own); such a class must never be deferred by the
// reduced successor generation.
type Visibility struct {
	Visible bool
	Reason  string // non-empty iff Visible: why the class was pessimized
}

// Footprint is the static read/write footprint of one rule class, in
// terms of the abstract slots the engine exposes: the executing
// controller's own fields (state, vars, data, defer queue), the global
// last-write register, and the network virtual channels it may send
// into. Reads and writes of the executing node's own slots are implicit
// — every class reads and writes them — so the footprint records only
// the facts that matter for cross-node dependence.
type Footprint struct {
	// Performs: the class runs AHit or APerform, i.e. it reads or
	// writes the globally checked last-write register and the data
	// value the data-value invariant compares against.
	Performs bool
	// WritesData: the class writes the controller's own data block
	// (ACopyData / AWriteback copy the message payload in).
	WritesData bool
	// Sends[k]: the class may send message k (index into Protocol.Msgs).
	Sends []bool
	// SendsToDir / SendsToCache: destination kinds the class may send to.
	SendsToDir   bool
	SendsToCache bool
	// Defers: the class may push the triggering message onto DeferQ.
	Defers bool
	// MayErr: execution may fail (unexpected message, possible guard
	// ambiguity, send to unset owner cannot be excluded, ...).
	MayErr bool
}

// Class is the lint-facing record of one rule class.
type Class struct {
	Kind      ir.MachineKind
	State     ir.StateName
	Ev        ir.Event
	Foot      Footprint
	Vis       Visibility
	Fusible   bool // collapse-fusible (monotone): see Analysis.CacheMsgFuse
	StallOnly bool // every transition stalls: the class never executes
}

// exprTainted reports whether evaluating e may yield a node identity,
// given the set of id-tainted variable names.
func exprTainted(e *ir.Expr, tainted map[string]bool) bool {
	if e == nil {
		return false
	}
	switch e.Kind {
	case ir.EField:
		return e.Name == "src" || e.Name == "req"
	case ir.EVar:
		return tainted[e.Name]
	case ir.EBinop:
		return exprTainted(e.L, tainted) || exprTainted(e.R, tainted)
	case ir.ENot:
		return exprTainted(e.L, tainted)
	}
	return false
}

// pureIDExpr reports whether e is a pure identity expression: one whose
// value is always a node id already known to the system (a message's
// src/req field, an id-tainted variable) or the null id. Only pure id
// expressions may flow into id sinks (request payloads, id variables,
// sharer-set members) without defeating the id-freeness induction the
// reducer relies on; anything else — constants, arithmetic, counts —
// could mint a node identity out of thin air.
func pureIDExpr(e *ir.Expr, tainted map[string]bool) bool {
	if e == nil {
		return true
	}
	switch e.Kind {
	case ir.ENone:
		return true
	case ir.EField:
		return e.Name == "src" || e.Name == "req"
	case ir.EVar:
		return tainted[e.Name]
	}
	return false
}

// taintIDVars runs the id-flow fixpoint for one machine: the set of
// integer variables that may hold a node identity. Seeds are the
// VID-typed variables (plus "owner", which resolveDst reads by name);
// assignment from a tainted expression propagates taint. The second
// return value lists id-sink pessimizations: places where a non-pure
// expression flows into an id sink, defeating the id-freeness induction
// for the whole protocol.
func taintIDVars(m *ir.Machine) (map[string]bool, []string) {
	tainted := map[string]bool{}
	isVID := map[string]bool{}
	for _, v := range m.Vars {
		if v.Type == ir.VID || v.Name == "owner" {
			tainted[v.Name] = true
			isVID[v.Name] = true
		}
	}
	// Propagate through ASet until fixpoint (var := tainted expr).
	for changed := true; changed; {
		changed = false
		for ti := range m.Trans {
			for _, a := range m.Trans[ti].Actions {
				if a.Op == ir.ASet && !tainted[a.Var] && exprTainted(a.Expr, tainted) {
					tainted[a.Var] = true
					changed = true
				}
			}
		}
	}
	var unsafe []string
	sink := func(what string, e *ir.Expr) {
		if !pureIDExpr(e, tainted) {
			unsafe = append(unsafe, fmt.Sprintf("%s: %s receives non-id expression %s", m.Name, what, e))
		}
	}
	checkActs := func(acts []ir.Action) {
		for _, a := range acts {
			switch a.Op {
			case ir.ASend:
				if a.Payload.Req != nil {
					sink("req payload of "+string(a.Msg), a.Payload.Req)
				}
			case ir.ASet:
				if isVID[a.Var] {
					sink("id variable "+a.Var, a.Expr)
				}
			case ir.ASetAdd, ir.ASetDel:
				sink("set "+a.Var+" member", a.Expr)
			}
		}
	}
	for ti := range m.Trans {
		checkActs(m.Trans[ti].Actions)
	}
	for _, acts := range m.DeferredActions {
		checkActs(acts)
	}
	return tainted, unsafe
}

// guardsDisjoint attempts to prove that two guards can never hold in the
// same evaluation, so a multi-alternative (state, event) class cannot
// trip the engine's ambiguity error. It recognizes the generator's two
// idioms: complementary guards (g2 == !g1 structurally) and disjoint
// comparisons of one common sub-expression against constants
// (e.g. acks == 1 vs acks > 1). Anything it cannot prove is reported
// non-disjoint, which pessimizes the class to visible — never unsound.
func guardsDisjoint(g1, g2 *ir.Expr) bool {
	if g1 == nil || g2 == nil {
		return false
	}
	if g2.Kind == ir.ENot && exprEqual(g2.L, g1) {
		return true
	}
	if g1.Kind == ir.ENot && exprEqual(g1.L, g2) {
		return true
	}
	if g1.Kind == ir.EBinop && g2.Kind == ir.EBinop &&
		exprEqual(g1.L, g2.L) && g1.R != nil && g2.R != nil &&
		g1.R.Kind == ir.EConst && g2.R.Kind == ir.EConst {
		lo1, hi1, ok1 := constRange(g1.Op, g1.R.Int)
		lo2, hi2, ok2 := constRange(g2.Op, g2.R.Int)
		if ok1 && ok2 && (hi1 < lo2 || hi2 < lo1) {
			return true
		}
	}
	return false
}

// constRange maps "x OP c" to the closed interval of x values
// satisfying it (using int min/max as infinities).
func constRange(op ir.BinOp, c int) (lo, hi int, ok bool) {
	const inf = int(^uint(0) >> 1)
	switch op {
	case ir.OpEq:
		return c, c, true
	case ir.OpLt:
		return -inf, c - 1, true
	case ir.OpLe:
		return -inf, c, true
	case ir.OpGt:
		return c + 1, inf, true
	case ir.OpGe:
		return c, inf, true
	}
	return 0, 0, false
}

// exprEqual is structural expression equality.
func exprEqual(a, b *ir.Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.Op == b.Op && a.Name == b.Name &&
		a.Int == b.Int && exprEqual(a.L, b.L) && exprEqual(a.R, b.R)
}

// guardMayError reports whether evaluating g in an access context (no
// triggering message) can fail: any reference to a message field does.
func guardMayError(g *ir.Expr, isAccess bool) bool {
	if g == nil {
		return false
	}
	if isAccess && g.Kind == ir.EField {
		return true
	}
	return guardMayError(g.L, isAccess) || guardMayError(g.R, isAccess)
}
