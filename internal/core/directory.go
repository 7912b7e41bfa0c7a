package core

import (
	"fmt"
	"sort"

	"protogen/internal/ir"
)

// generateDirectory builds the directory controller (paper §V-F). The
// directory has perfect knowledge of serialization order, so there is no
// Case 1; requests arriving while a directory entry is transient are
// deferred (non-stalling) or stalled. Two generated rules go beyond the
// SSP: the stale-Put rule (any Put in a state with no SSP entry is
// acknowledged so its issuer can finish) and request reinterpretation
// (an Upgrade arriving where Upgrades are impossible is handled as the
// access-equivalent GetM).
func (g *gen) generateDirectory() error {
	for _, d := range g.spec.Dir.Stable {
		if err := g.dir.AddState(&ir.State{Name: d.Name, Kind: ir.Stable}); err != nil {
			return err
		}
	}
	g.dir.Init = g.spec.Dir.Init
	g.dir.Vars = append([]ir.VarDecl(nil), g.spec.Dir.Vars...)

	sharerSet := ""
	for _, v := range g.spec.Dir.Vars {
		if v.Type == ir.VIDSet {
			sharerSet = v.Name
			break
		}
	}

	for _, t := range g.spec.Dir.Txns {
		if t.Trigger.Kind != ir.EvMsg {
			return fmt.Errorf("directory process %s must be message-triggered", t.ID)
		}
		guard, label, err := srcGuard(t.Src, sharerSet)
		if err != nil {
			return fmt.Errorf("process %s: %v", t.ID, err)
		}
		if t.Await == nil {
			g.dir.AddTransition(ir.Transition{
				From: t.Start, Ev: t.Trigger, Guard: guard, GuardLabel: label, ColLabel: label,
				Actions: ir.CloneActions(t.InitActions), Next: t.Final,
			})
			continue
		}
		first, err := g.addPositions(g.dir, t)
		if err != nil {
			return err
		}
		g.dir.AddTransition(ir.Transition{
			From: t.Start, Ev: t.Trigger, Guard: guard, GuardLabel: label, ColLabel: label,
			Actions: ir.CloneActions(t.InitActions), Next: first.name,
		})
		// Build the transient transitions of every await position.
		t.Await.EachAwait(func(a *ir.Await) {
			p := g.positions[a.ID]
			for _, c := range a.Cases {
				tr := ir.Transition{
					From: p.name, Ev: ir.MsgEvent(c.Msg),
					Guard: c.Guard.Clone(), GuardLabel: c.GuardLabel, ColLabel: c.WhenLabel,
					Actions: ir.CloneActions(c.Actions),
				}
				switch c.Kind {
				case ir.CaseBreak:
					tr.Next = c.Final
				case ir.CaseAwait:
					tr.Next = g.positions[c.Sub.ID].name
				case ir.CaseLoop:
					tr.Next = p.name
				}
				g.dir.AddTransition(tr)
			}
		})
	}

	// Requests arriving at transient directory entries.
	var reqs []ir.MsgType
	for _, d := range g.spec.Msgs {
		if d.Class == ir.ClassRequest {
			reqs = append(reqs, d.Type)
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, n := range append([]ir.StateName(nil), g.dir.Order...) {
		if g.dir.State(n).Kind != ir.Transient {
			continue
		}
		for _, r := range reqs {
			if len(g.dir.Find(n, ir.MsgEvent(r))) > 0 {
				continue
			}
			if g.opts.NonStalling {
				g.dir.AddTransition(ir.Transition{
					From: n, Ev: ir.MsgEvent(r),
					Actions: []ir.Action{{Op: ir.ADefer, Msg: r}}, Next: n,
					Note: "defer until stable",
				})
			} else {
				g.dir.AddTransition(ir.Transition{From: n, Ev: ir.MsgEvent(r), Next: n, Stall: true})
			}
		}
	}

	g.stalePutRules()
	g.reinterpretRules()
	return nil
}

// srcGuard renders a directory process's sender constraint as a guard.
func srcGuard(c ir.SrcConstraint, sharerSet string) (*ir.Expr, string, error) {
	switch c {
	case ir.SrcAny:
		return nil, "", nil
	case ir.SrcOwner:
		e := ir.Binop(ir.OpEq, ir.Field("src"), ir.Var("owner"))
		return e, "src == owner", nil
	case ir.SrcNonOwner:
		e := ir.Binop(ir.OpNe, ir.Field("src"), ir.Var("owner"))
		return e, "src != owner", nil
	case ir.SrcSharer:
		if sharerSet == "" {
			return nil, "", fmt.Errorf("'from sharer' needs an idset variable on the directory")
		}
		return ir.InSet(sharerSet, ir.Field("src")), "src in " + sharerSet, nil
	case ir.SrcNonSharer:
		if sharerSet == "" {
			return nil, "", fmt.Errorf("'from nonsharer' needs an idset variable on the directory")
		}
		return ir.Not(ir.InSet(sharerSet, ir.Field("src"))), "src not in " + sharerSet, nil
	}
	return nil, "", fmt.Errorf("sender constraint %q not supported", c)
}

// computePutAcks finds, for every Put request, the acknowledgment message
// the directory answers it with (needed by the stale-Put rule and by
// Case 1's Put-compatibility check).
func (g *gen) computePutAcks() error {
	for _, t := range g.spec.Dir.Txns {
		if t.Trigger.Kind != ir.EvMsg || !g.isPut(t.Trigger.Msg) {
			continue
		}
		for _, a := range t.InitActions {
			if a.Op != ir.ASend || a.Dst != ir.DstMsgSrc || a.Payload.WithData {
				continue
			}
			if prev, ok := g.putAck[t.Trigger.Msg]; ok && prev != a.Msg {
				return fmt.Errorf("put %s acknowledged with both %s and %s", t.Trigger.Msg, prev, a.Msg)
			}
			g.putAck[t.Trigger.Msg] = a.Msg
		}
	}
	for _, d := range g.spec.Msgs {
		if d.Put {
			if _, ok := g.putAck[d.Type]; !ok {
				return fmt.Errorf("put request %s is never acknowledged by the directory", d.Type)
			}
		}
	}
	return nil
}

// stalePutRules adds Put handling to every stable directory state where
// the SSP has none (or only a sender-constrained handler): acknowledge and
// stay, optionally pruning the sharer list (paper §V-F).
func (g *gen) stalePutRules() {
	var puts []ir.MsgType
	for _, d := range g.spec.Msgs {
		if d.Put {
			puts = append(puts, d.Type)
		}
	}
	sort.Slice(puts, func(i, j int) bool { return puts[i] < puts[j] })
	sharerSet := ""
	for _, v := range g.spec.Dir.Vars {
		if v.Type == ir.VIDSet {
			sharerSet = v.Name
			break
		}
	}
	for _, p := range puts {
		acts := []ir.Action{ir.Send(g.putAck[p], ir.DstMsgSrc)}
		if g.opts.PruneSharerOnStalePut && sharerSet != "" {
			acts = append(acts, ir.Action{Op: ir.ASetDel, Var: sharerSet, Expr: ir.Field("src")})
		}
		for _, n := range g.dir.StableStates() {
			existing := g.dir.Find(n, ir.MsgEvent(p))
			switch {
			case len(existing) == 0:
				g.dir.AddTransition(ir.Transition{
					From: n, Ev: ir.MsgEvent(p),
					Actions: ir.CloneActions(acts), Next: n, Note: "stale put",
				})
			case len(existing) == 1 && existing[0].GuardLabel == "src == owner":
				g.dir.AddTransition(ir.Transition{
					From: n, Ev: ir.MsgEvent(p),
					Guard:      ir.Binop(ir.OpNe, ir.Field("src"), ir.Var("owner")),
					GuardLabel: "src != owner", ColLabel: "src != owner",
					Actions: ir.CloneActions(acts), Next: n, Note: "stale put",
				})
			}
		}
	}
}

// reinterpretRules copies handlers so that a request the cache may leave
// in flight after a Case-1 demotion (e.g. Upgrade) is handled like its
// access-equivalent request (e.g. GetM) wherever it has no handler of its
// own (§V-D1).
func (g *gen) reinterpretRules() {
	var froms []ir.MsgType
	for f := range g.reinterp {
		froms = append(froms, f)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	for _, from := range froms {
		to := g.reinterp[from]
		for _, n := range append([]ir.StateName(nil), g.dir.Order...) {
			if len(g.dir.Find(n, ir.MsgEvent(from))) > 0 {
				continue
			}
			for _, t := range g.dir.Find(n, ir.MsgEvent(to)) {
				t.Ev = ir.MsgEvent(from)
				t.Note = fmt.Sprintf("reinterpreted as %s", to)
				t.Actions = ir.CloneActions(t.Actions)
				t.Guard = t.Guard.Clone()
				g.dir.AddTransition(t)
			}
		}
	}
	if g.p != nil {
		for f, t := range g.reinterp {
			g.p.Reinterpret[f] = t
		}
	}
}
