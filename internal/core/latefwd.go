package core

import (
	"sort"

	"protogen/internal/ir"
)

// lateFwdPass handles a race the paper's MSI protocols never exhibit but
// owner-preserving protocols (MOSI's Owned state) do: a forwarded request
// whose handler keeps the cache's stable state unchanged — O_Fwd_GetS at an
// Owned block — does not change the directory's view, so the directory can
// serialize the cache's own next request (an O -> M upgrade) immediately
// after it. The upgrade's response travels on the response network and can
// overtake the forward, so the forward arrives "late": after the response,
// after the upgrade completes (stable M), or even after a subsequent
// replacement request (MI_A — but no further, because the Put-Ack travels
// on the forward network behind it).
//
// For every such forward F (home state X, handler X -> X), this pass adds
// respond-and-stay transitions to every state reachable from X's
// transactions through response-class messages and core accesses only —
// forward-class messages are ordered behind F on the forward network, so
// following them is unnecessary. Responding immediately is mandatory (the
// requestor is waiting for data the cache still holds); staying is correct
// because the response the cache already consumed was computed by the
// directory after F was serialized.
func (g *gen) lateFwdPass() {
	fwdNames := make([]ir.MsgType, 0, len(g.fwds))
	for f := range g.fwds {
		fwdNames = append(fwdNames, f)
	}
	sort.Slice(fwdNames, func(i, j int) bool { return fwdNames[i] < fwdNames[j] })

	for _, f := range fwdNames {
		fi := g.fwds[f]
		for _, xd := range g.spec.Cache.Stable {
			x := xd.Name
			h := fi.handlers[x]
			if h == nil || h.Final != x || h.Await != nil {
				continue
			}
			for _, n := range g.lateClosure(x) {
				if len(g.cache.Find(n, ir.MsgEvent(f))) > 0 {
					continue
				}
				g.cache.AddTransition(ir.Transition{
					From: n, Ev: ir.MsgEvent(f),
					Actions: ir.CloneActions(h.InitActions), Next: n,
					Note: "late case 1: ordered before own request",
				})
			}
		}
	}
}

// lateClosure returns the states reachable from x's own transactions by
// consuming response-class messages and core accesses (the steps a cache
// can take while an earlier forward is still in flight to it).
func (g *gen) lateClosure(x ir.StateName) []ir.StateName {
	seen := map[ir.StateName]bool{}
	var queue []ir.StateName
	push := func(n ir.StateName) {
		if !seen[n] {
			seen[n] = true
			queue = append(queue, n)
		}
	}
	// Seeds: the root positions of x's transactions (the forward can
	// already be in flight when the own request is issued).
	for _, t := range g.spec.Cache.TxnsAt(x) {
		if t.Await == nil {
			continue
		}
		if p := g.rootPos[t.ID]; p != nil {
			push(p.name)
		}
	}
	var out []ir.StateName
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, tr := range g.cache.TransFrom(n) {
			if tr.Stall || tr.Stale || tr.Next == n {
				continue
			}
			switch tr.Ev.Kind {
			case ir.EvAccess:
				push(tr.Next)
			case ir.EvMsg:
				if g.spec.MsgClassOf(tr.Ev.Msg) == ir.ClassResponse && tr.Next != x {
					push(tr.Next)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
