package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"protogen/internal/ir"
)

// mergeStates merges transient states with identical behavior (identical
// outgoing rows, with self-references canonicalized), iterating to a
// fixpoint so that chains of equivalent states collapse together — this is
// what unifies the paper's IM_A_S = SM_A_S, IM_A_SI = SM_A_SI and
// IM_A_I = SM_A_I (Table VI). Earlier-created states win the name; merged
// names are recorded as aliases. Returns the rename map.
func mergeStates(m *ir.Machine) map[ir.StateName]ir.StateName {
	canon := map[ir.StateName]ir.StateName{}
	resolve := func(n ir.StateName) ir.StateName {
		for {
			c, ok := canon[n]
			if !ok {
				return n
			}
			n = c
		}
	}

	rows := rowsOf(m)
	for {
		groups := map[string][]ir.StateName{}
		var order []string
		for _, n := range m.Order {
			if resolve(n) != n {
				continue // already merged away
			}
			r := rows[n]
			if r == nil {
				continue // stable
			}
			sig := r.signature(n, resolve)
			if _, ok := groups[sig]; !ok {
				order = append(order, sig)
			}
			groups[sig] = append(groups[sig], n)
		}
		changed := false
		for _, sig := range order {
			g := groups[sig]
			if len(g) < 2 {
				continue
			}
			for _, n := range g[1:] {
				canon[n] = g[0]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if len(canon) == 0 {
		return nil
	}

	// Rewrite the machine: drop merged states and their transitions,
	// retarget every Next, record aliases.
	renames := map[ir.StateName]ir.StateName{}
	for n := range canon {
		renames[n] = resolve(n)
	}
	var keepOrder []ir.StateName
	for _, n := range m.Order {
		if _, merged := renames[n]; merged {
			tgt := m.State(renames[n])
			tgt.Aliases = append(tgt.Aliases, n)
			tgt.Aliases = append(tgt.Aliases, m.State(n).Aliases...)
			delete(m.Sts, n)
			continue
		}
		keepOrder = append(keepOrder, n)
	}
	m.Order = keepOrder
	keepTrans := make([]ir.Transition, 0, len(m.Trans))
	for _, t := range m.Trans {
		if _, merged := renames[t.From]; merged {
			continue
		}
		if to, merged := renames[t.Next]; merged {
			t.Next = to
		}
		keepTrans = append(keepTrans, t)
	}
	m.SetTransitions(keepTrans)
	for _, st := range m.Sts {
		sort.Slice(st.Aliases, func(i, j int) bool { return st.Aliases[i] < st.Aliases[j] })
	}
	return renames
}

// stateRows is a transient state's outgoing behaviour with every
// transition formatted except its next state, which the fixpoint
// resolves afresh on each pass.
type stateRows struct {
	defers   string
	rows     []string // "ev|guard|stall|stale|actions|", one per transition
	next     []ir.StateName
	resolved []ir.StateName // next as the cached sig resolved it
	sig      string
}

// rowsOf formats the rows of every transient state once.
func rowsOf(m *ir.Machine) map[ir.StateName]*stateRows {
	out := map[ir.StateName]*stateRows{}
	for _, n := range m.Order {
		if st := m.State(n); st.Kind == ir.Transient {
			out[n] = &stateRows{defers: fmt.Sprintf("defers=%v", st.Defers)}
		}
	}
	for i := range m.Trans {
		t := &m.Trans[i]
		r := out[t.From]
		if r == nil {
			continue
		}
		r.rows = append(r.rows, t.Ev.String()+"|"+t.GuardLabel+"|"+strconv.FormatBool(t.Stall)+"|"+
			strconv.FormatBool(t.Stale)+"|"+ir.ActionsString(t.Actions)+"|")
		r.next = append(r.next, t.Next)
	}
	for _, r := range out {
		r.resolved = make([]ir.StateName, len(r.next))
	}
	return out
}

// signature canonicalizes state n's outgoing behavior; it is rebuilt
// only when a next state resolves differently than last time. The
// deferred obligations are part of the behavior (AFlush discharges
// them), so states with different defers never merge: IM_AD_SI (owes
// Data to a GetS requestor and the directory) must stay distinct from
// IM_AD_I (owes Data to a GetM requestor) even though their transition
// rows look alike.
func (r *stateRows) signature(n ir.StateName, resolve func(ir.StateName) ir.StateName) string {
	same := r.sig != ""
	for i, next := range r.next {
		to := resolve(next)
		if to == n {
			to = "@self"
		}
		if to != r.resolved[i] {
			r.resolved[i] = to
			same = false
		}
	}
	if same {
		return r.sig
	}
	rows := make([]string, 0, len(r.rows)+1)
	rows = append(rows, r.defers)
	for i, row := range r.rows {
		rows = append(rows, row+string(r.resolved[i]))
	}
	sort.Strings(rows)
	r.sig = strings.Join(rows, "\n")
	return r.sig
}
