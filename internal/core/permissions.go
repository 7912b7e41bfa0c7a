package core

import (
	"sort"

	"protogen/internal/ir"
)

// permissions implements Step 4 (paper §V-E): assign which accesses are
// allowed in every transient state. Stores and replacements always stall
// in transient states. Loads hit iff
//
//	loadOK(origin) ∧ ∀f ∈ finals(position): loadOK(f)
//	              ∧ ∀c ∈ chain: loadOK(c)
//	              ∧ (response not yet seen ∨ chain empty)
//
// which reproduces every Load cell of paper Table VI, including SM_AD_S
// hitting while SM_A_S stalls (and therefore merges with IM_A_S). With
// TransientAccess disabled, everything stalls.
func (g *gen) permissions() {
	accs := make([]ir.AccessType, 0, len(g.usedAcc))
	for a := range g.usedAcc {
		accs = append(accs, a)
	}
	sort.Slice(accs, func(i, j int) bool { return accs[i] < accs[j] })

	for _, n := range g.cache.Order {
		st := g.cache.State(n)
		if st.Kind != ir.Transient {
			continue
		}
		for _, a := range accs {
			if len(g.cache.Find(n, ir.AccessEvent(a))) > 0 {
				continue
			}
			if a == ir.AccessLoad && g.loadHits(st) {
				g.cache.AddTransition(ir.Transition{
					From: n, Ev: ir.AccessEvent(a),
					Actions: []ir.Action{{Op: ir.AHit}}, Next: n,
				})
				continue
			}
			g.cache.AddTransition(ir.Transition{
				From: n, Ev: ir.AccessEvent(a), Next: n, Stall: true,
			})
		}
	}
}

// loadHits evaluates the Step-4 load rule for one transient state.
func (g *gen) loadHits(st *ir.State) bool {
	if !g.opts.TransientAccess || st.Stale {
		return false
	}
	loadOK := func(s ir.StateName) bool {
		return g.spec.Cache.AccessOK(s, ir.AccessLoad)
	}
	if !loadOK(st.Origin) {
		return false
	}
	pos := g.positions[st.PosID]
	if pos == nil {
		return false
	}
	for _, f := range pos.finals {
		if !loadOK(f) {
			return false
		}
	}
	for _, c := range st.Chain {
		if !loadOK(c) {
			return false
		}
	}
	if st.RespSeen && len(st.Chain) > 0 {
		return false
	}
	return true
}
