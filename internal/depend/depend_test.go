package depend

import (
	"testing"

	"protogen/internal/ir"
)

func bin(op ir.BinOp, name string, c int) *ir.Expr {
	return &ir.Expr{Kind: ir.EBinop, Op: op,
		L: &ir.Expr{Kind: ir.EVar, Name: name},
		R: &ir.Expr{Kind: ir.EConst, Int: c}}
}

// TestGuardsDisjoint covers the prover's two idioms and its
// conservative defaults.
func TestGuardsDisjoint(t *testing.T) {
	acksEq0 := bin(ir.OpEq, "acks", 0)
	acksEq1 := bin(ir.OpEq, "acks", 1)
	acksGt0 := bin(ir.OpGt, "acks", 0)
	acksGt1 := bin(ir.OpGt, "acks", 1)
	acksLe1 := bin(ir.OpLe, "acks", 1)
	notEq0 := &ir.Expr{Kind: ir.ENot, L: acksEq0}
	cntEq0 := bin(ir.OpEq, "cnt", 0)
	for _, tc := range []struct {
		name   string
		g1, g2 *ir.Expr
		want   bool
	}{
		{"complement", acksEq0, notEq0, true},
		{"complement-flipped", notEq0, acksEq0, true},
		{"disjoint-ranges", acksEq0, acksGt0, true},
		{"disjoint-ranges-2", acksEq1, acksGt1, true},
		{"overlapping-ranges", acksGt0, acksGt1, false},
		{"overlapping-le", acksLe1, acksEq0, false},
		{"different-subjects", acksEq0, cntEq0, false},
		{"nil-guard", nil, acksEq0, false},
		{"both-nil", nil, nil, false},
	} {
		if got := guardsDisjoint(tc.g1, tc.g2); got != tc.want {
			t.Errorf("%s: guardsDisjoint = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTaintIDVars: VID-typed variables seed the taint, assignment
// propagates it, and a constant flowing into an id sink is an unsafe
// fact that disables reduction for the whole protocol.
func TestTaintIDVars(t *testing.T) {
	machine := func(extra ...ir.Action) *ir.Machine {
		m := ir.NewMachine("directory", ir.KindDirectory)
		m.Vars = []ir.VarDecl{
			{Name: "owner", Type: ir.VID},
			{Name: "keeper", Type: ir.VInt},
			{Name: "cnt", Type: ir.VInt},
		}
		m.AddTransition(ir.Transition{Actions: []ir.Action{{Op: ir.ASet, Var: "keeper",
			Expr: &ir.Expr{Kind: ir.EVar, Name: "owner"}}}})
		m.AddTransition(ir.Transition{Actions: []ir.Action{{Op: ir.ASet, Var: "cnt",
			Expr: &ir.Expr{Kind: ir.EConst, Int: 2}}}})
		if len(extra) > 0 {
			m.AddTransition(ir.Transition{Actions: extra})
		}
		return m
	}
	tainted, unsafe := taintIDVars(machine())
	if !tainted["owner"] || !tainted["keeper"] || tainted["cnt"] {
		t.Errorf("taint = %v, want owner+keeper only", tainted)
	}
	if len(unsafe) != 0 {
		t.Errorf("unexpected unsafe facts: %v", unsafe)
	}

	// A constant minted into an id variable defeats the induction.
	_, unsafe = taintIDVars(machine(ir.Action{Op: ir.ASet, Var: "owner", Expr: &ir.Expr{Kind: ir.EConst, Int: 1}}))
	if len(unsafe) != 1 {
		t.Fatalf("constant into id sink: unsafe = %v, want 1 fact", unsafe)
	}

	// So does non-id arithmetic into a sharer set.
	_, unsafe = taintIDVars(machine(ir.Action{Op: ir.ASetAdd, Var: "sharers", Expr: bin(ir.OpGt, "cnt", 0)}))
	if len(unsafe) != 1 {
		t.Fatalf("expression into set sink: unsafe = %v, want 1 fact", unsafe)
	}
}

// TestPureIDExpr: only src/req fields, tainted variables and the null
// id are pure; constants and arithmetic are not.
func TestPureIDExpr(t *testing.T) {
	tainted := map[string]bool{"owner": true}
	for _, tc := range []struct {
		name string
		e    *ir.Expr
		want bool
	}{
		{"nil", nil, true},
		{"none", &ir.Expr{Kind: ir.ENone}, true},
		{"src-field", &ir.Expr{Kind: ir.EField, Name: "src"}, true},
		{"req-field", &ir.Expr{Kind: ir.EField, Name: "req"}, true},
		{"acks-field", &ir.Expr{Kind: ir.EField, Name: "acks"}, false},
		{"tainted-var", &ir.Expr{Kind: ir.EVar, Name: "owner"}, true},
		{"plain-var", &ir.Expr{Kind: ir.EVar, Name: "cnt"}, false},
		{"const", &ir.Expr{Kind: ir.EConst, Int: 1}, false},
		{"binop", bin(ir.OpEq, "owner", 0), false},
	} {
		if got := pureIDExpr(tc.e, tainted); got != tc.want {
			t.Errorf("%s: pureIDExpr = %v, want %v", tc.name, got, tc.want)
		}
	}
}
