package ir

import (
	"strconv"
	"strings"
)

// ExprKind tags the variants of the small expression language used in
// guards, payload computations and auxiliary-variable assignments.
// Go has no sum types; Expr is a tagged struct and Validate rejects
// combinations the tag does not permit.
type ExprKind int

// Expression variants.
const (
	EConst ExprKind = iota // integer literal            -> Int
	EVar                   // auxiliary variable          -> Name
	EField                 // field of the trigger msg    -> Name ("acks", "src", "req", "data")
	ECount                 // count(set [except <expr>])  -> Name (set var), L (optional except)
	EBinop                 // L Op R
	ENone                  // the distinguished "no id" value for id variables
	EInSet                 // set membership              -> Name (set var), L (member id)
	ENot                   // logical negation            -> L
)

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binopNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpEq: "==", OpNe: "!=",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

func (o BinOp) String() string { return binopNames[o] }

// Expr is one node of an expression tree.
type Expr struct {
	Kind ExprKind
	Int  int
	Name string
	Op   BinOp
	L, R *Expr
}

// Constructors.

// Const builds an integer literal.
func Const(v int) *Expr { return &Expr{Kind: EConst, Int: v} }

// Var references an auxiliary variable of the machine.
func Var(name string) *Expr { return &Expr{Kind: EVar, Name: name} }

// Field references a field of the triggering message.
func Field(name string) *Expr { return &Expr{Kind: EField, Name: name} }

// Count counts the members of a set variable, optionally excluding the id
// denoted by except.
func Count(set string, except *Expr) *Expr {
	return &Expr{Kind: ECount, Name: set, L: except}
}

// Binop combines two subexpressions.
func Binop(op BinOp, l, r *Expr) *Expr {
	return &Expr{Kind: EBinop, Op: op, L: l, R: r}
}

// None is the distinguished null id.
func None() *Expr { return &Expr{Kind: ENone} }

// InSet tests membership of member in the set variable.
func InSet(set string, member *Expr) *Expr {
	return &Expr{Kind: EInSet, Name: set, L: member}
}

// Not negates a boolean expression.
func Not(e *Expr) *Expr { return &Expr{Kind: ENot, L: e} }

func (e *Expr) String() string {
	if e == nil {
		return ""
	}
	switch e.Kind {
	case EConst:
		return strconv.Itoa(e.Int)
	case EVar:
		return e.Name
	case EField:
		return "msg." + e.Name
	case ECount:
		if e.L != nil {
			return "count(" + e.Name + " except " + e.L.String() + ")"
		}
		return "count(" + e.Name + ")"
	case EBinop:
		return e.L.String() + " " + e.Op.String() + " " + e.R.String()
	case ENone:
		return "none"
	case EInSet:
		return e.Name + ".contains(" + e.L.String() + ")"
	case ENot:
		return "!(" + e.L.String() + ")"
	}
	return "expr?"
}

// Equal reports structural equality of two expressions.
func (e *Expr) Equal(o *Expr) bool {
	if e == nil || o == nil {
		return e == nil && o == nil
	}
	if e.Kind != o.Kind || e.Int != o.Int || e.Name != o.Name || e.Op != o.Op {
		return false
	}
	return e.L.Equal(o.L) && e.R.Equal(o.R)
}

// Clone deep-copies an expression tree.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := *e
	c.L = e.L.Clone()
	c.R = e.R.Clone()
	return &c
}

// Walk visits every node of the tree in prefix order.
func (e *Expr) Walk(f func(*Expr)) {
	if e == nil {
		return
	}
	f(e)
	e.L.Walk(f)
	e.R.Walk(f)
}

// GuardLabel renders a short human-readable label for use as a table
// column qualifier, e.g. "ack=0" or "last".
func GuardLabel(e *Expr) string {
	if e == nil {
		return ""
	}
	s := e.String()
	s = strings.ReplaceAll(s, "msg.", "")
	return s
}
