package ir

import (
	"fmt"
	"sort"
)

// ValidateSpec checks that an SSP is well-formed before generation:
// states and messages are declared, triggers are unique, await trees are
// terminated, and expressions reference declared variables. Every error
// is a coded *Diag (or wraps one), so callers can grep and branch on the
// stable PG0xx codes via CodeOf; internal/analyze layers its flow passes
// on top of these checks instead of duplicating them.
func ValidateSpec(s *Spec) error {
	if s.Name == "" {
		return Diagf(CodeSpecName, "spec: missing protocol name")
	}
	if s.Cache == nil || s.Dir == nil {
		return Diagf(CodeSpecMachines, "spec %s: needs both a cache and a directory machine", s.Name)
	}
	msgs := map[MsgType]bool{}
	for _, d := range s.Msgs {
		if msgs[d.Type] {
			return Diagf(CodeDupMsg, "spec %s: duplicate message %s", s.Name, d.Type)
		}
		if a, ok := accessNamed(d.Type); ok {
			return Diagf(CodeDupMsg, "spec %s: message %s is named like the core access %s (%s); events are keyed by name",
				s.Name, d.Type, a, a.Label())
		}
		msgs[d.Type] = true
	}
	for _, m := range []*MachineSpec{s.Cache, s.Dir} {
		if err := validateMachineSpec(s, m, msgs); err != nil {
			return err
		}
	}
	return nil
}

// accessNamed reports the core access, AccessNone included, whose
// Event.String() a message called m would share.
func accessNamed(m MsgType) (AccessType, bool) {
	for _, a := range append([]AccessType{AccessNone}, Accesses...) {
		if string(m) == a.String() {
			return a, true
		}
	}
	return 0, false
}

func validateMachineSpec(s *Spec, m *MachineSpec, msgs map[MsgType]bool) error {
	stable := map[StateName]bool{}
	for _, d := range m.Stable {
		if stable[d.Name] {
			return Diagf(CodeDupState, "%s: duplicate stable state %s", m.Name, d.Name)
		}
		stable[d.Name] = true
	}
	if !stable[m.Init] {
		return Diagf(CodeBadInit, "%s: init state %s not declared", m.Name, m.Init)
	}
	vars := map[string]VarType{}
	for _, v := range m.Vars {
		if _, ok := vars[v.Name]; ok {
			return Diagf(CodeDupVar, "%s: duplicate variable %s", m.Name, v.Name)
		}
		vars[v.Name] = v.Type
	}
	type trig struct {
		s  StateName
		ev string
		sc SrcConstraint
	}
	seen := map[trig]bool{}
	for _, t := range m.Txns {
		if !stable[t.Start] {
			return Diagf(CodeBadStart, "%s: process at undeclared state %s", m.Name, t.Start)
		}
		if t.Trigger.Kind == EvMsg && !msgs[t.Trigger.Msg] {
			return Diagf(CodeUndeclaredMsg, "%s: process %s triggered by undeclared message %s", m.Name, t.ID, t.Trigger.Msg)
		}
		if m.Kind == KindCache && t.Trigger.Kind == EvMsg {
			if d, _ := s.MsgDecl(t.Trigger.Msg); d.Class == ClassRequest {
				return Diagf(CodeRequestTrigger, "%s: cache process cannot be triggered by request %s", m.Name, t.Trigger.Msg)
			}
		}
		k := trig{t.Start, t.Trigger.String(), t.Src}
		if seen[k] {
			return Diagf(CodeDupProcess, "%s: duplicate process (%s, %s)", m.Name, t.Start, t.Trigger)
		}
		seen[k] = true
		if t.Request != "" {
			if !msgs[t.Request] {
				return Diagf(CodeUndeclaredMsg, "%s: process %s sends undeclared request %s", m.Name, t.ID, t.Request)
			}
			if d, _ := s.MsgDecl(t.Request); d.Class != ClassRequest {
				return Diagf(CodeBadRequestClass, "%s: process %s uses %s-class message %s as its request",
					m.Name, t.ID, d.Class, t.Request)
			}
		}
		if err := validateActions(m, vars, t.InitActions, msgs); err != nil {
			return fmt.Errorf("%s: process %s: %w", m.Name, t.ID, err)
		}
		if t.Await == nil {
			if !t.Hit && !stable[t.Final] {
				return Diagf(CodeBadFinal, "%s: process %s ends at undeclared state %s", m.Name, t.ID, t.Final)
			}
			continue
		}
		var err error
		t.Await.EachAwait(func(a *Await) {
			if err != nil {
				return
			}
			if len(a.Cases) == 0 {
				err = Diagf(CodeEmptyAwait, "%s: process %s has an empty await", m.Name, t.ID)
				return
			}
			for _, c := range a.Cases {
				if !msgs[c.Msg] {
					err = Diagf(CodeUndeclaredMsg, "%s: process %s awaits undeclared message %s", m.Name, t.ID, c.Msg)
					return
				}
				if c.Kind == CaseBreak && !stable[c.Final] {
					err = Diagf(CodeBadFinal, "%s: process %s breaks to undeclared state %s", m.Name, t.ID, c.Final)
					return
				}
				if c.Kind == CaseAwait && c.Sub == nil {
					err = Diagf(CodeNoSubAwait, "%s: process %s has a descend case with no sub-await", m.Name, t.ID)
					return
				}
				if e := validateActions(m, vars, c.Actions, msgs); e != nil {
					err = fmt.Errorf("%s: process %s: %w", m.Name, t.ID, e)
					return
				}
				if e := validateExpr(vars, c.Guard); e != nil {
					err = fmt.Errorf("%s: process %s guard: %w", m.Name, t.ID, e)
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func validateActions(m *MachineSpec, vars map[string]VarType, as []Action, msgs map[MsgType]bool) error {
	for _, a := range as {
		switch a.Op {
		case ASend:
			if !msgs[a.Msg] {
				return Diagf(CodeUndeclaredMsg, "send of undeclared message %s", a.Msg)
			}
			if (a.Dst == DstOwner || a.Dst == DstSharers) && m.Kind != KindDirectory {
				return Diagf(CodeBadAction, "cache cannot send to %s", a.Dst)
			}
			if err := validateExpr(vars, a.Payload.Acks); err != nil {
				return err
			}
			if err := validateExpr(vars, a.Payload.Req); err != nil {
				return err
			}
		case ASet:
			if _, ok := vars[a.Var]; !ok {
				return Diagf(CodeBadAction, "assignment to undeclared variable %s", a.Var)
			}
			if err := validateExpr(vars, a.Expr); err != nil {
				return err
			}
		case ASetAdd, ASetDel, ASetClear:
			if t, ok := vars[a.Var]; !ok || t != VIDSet {
				return Diagf(CodeBadAction, "set operation on non-set variable %s", a.Var)
			}
			if err := validateExpr(vars, a.Expr); err != nil {
				return err
			}
		case ACopyData, AWriteback, AHit:
			// always fine in a spec
		case ADefer, AFlush, APerform, AStallMarker, AReplay:
			return Diagf(CodeBadAction, "action %s is generator-internal and not allowed in a spec", a)
		}
	}
	return nil
}

func validateExpr(vars map[string]VarType, e *Expr) error {
	var err error
	e.Walk(func(n *Expr) {
		if err != nil {
			return
		}
		switch n.Kind {
		case EVar:
			if _, ok := vars[n.Name]; !ok {
				err = Diagf(CodeBadExpr, "undeclared variable %s", n.Name)
			}
		case ECount:
			if t, ok := vars[n.Name]; !ok || t != VIDSet {
				err = Diagf(CodeBadExpr, "count of non-set %s", n.Name)
			}
		case EInSet:
			if t, ok := vars[n.Name]; !ok || t != VIDSet {
				err = Diagf(CodeBadExpr, "membership test on non-set %s", n.Name)
			}
		}
	})
	return err
}

// ValidateProtocol checks structural sanity of a generated protocol:
// every transition references known states, and no two non-stall
// transitions share (state, event, guard-label). Errors carry the same
// stable PG0xx codes as ValidateSpec (see CodeOf).
func ValidateProtocol(p *Protocol) error {
	for _, m := range []*Machine{p.Cache, p.Dir} {
		if m == nil {
			return Diagf(CodeProtoMachine, "protocol %s: missing machine", p.Name)
		}
		if m.State(m.Init) == nil {
			return Diagf(CodeProtoMachine, "%s: init state %s unknown", m.Name, m.Init)
		}
		type cell struct {
			from  StateName
			ev    Event
			guard string
		}
		cells := make(map[cell]bool, len(m.Trans))
		for i := range m.Trans {
			t := &m.Trans[i]
			if m.State(t.From) == nil {
				return Diagf(CodeProtoUnknownState, "%s: transition from unknown state %s", m.Name, t.From)
			}
			if !t.Stall && m.State(t.Next) == nil {
				return Diagf(CodeProtoUnknownState, "%s: transition %s -> unknown state %s", m.Name, t.Key(), t.Next)
			}
			k := cell{t.From, t.Ev, t.GuardLabel}
			if cells[k] {
				return Diagf(CodeProtoDupCell, "%s: duplicate transition cell %s", m.Name, t.Key())
			}
			cells[k] = true
		}
	}
	return nil
}

// SortedStateNames returns the machine's state names sorted
// lexicographically (handy for deterministic test output).
func SortedStateNames(m *Machine) []StateName {
	out := make([]StateName, 0, len(m.Sts))
	for n := range m.Sts {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
