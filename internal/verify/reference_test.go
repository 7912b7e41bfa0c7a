package verify

import (
	"fmt"
	"sort"
	"testing"

	"protogen/internal/core"
	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// The reference explorer: a deliberately naive second checker that every
// count and verdict of the optimized one is held to. It shares the
// transition relation with it — engine.NewSystem, Rules, Apply, Clone,
// AppendSnapshot — and nothing else: a sequential FIFO over whole
// Systems, a map keyed by snapshot bytes (no Encoder, no symmetry, no
// fingerprint, no reduction, no store.Table), invariants and quiescence
// read off the ir state machine, and AG EF quiescent by sweeping the
// predecessor lists until nothing changes.
type refResult struct {
	states, edges, depth, quiescent int
	kinds                           map[string]bool // violation kinds seen anywhere in the space
}

func refExplore(p *ir.Protocol, cfg Config) refResult {
	init := engine.NewSystem(p, engine.Config{Caches: cfg.Caches, Capacity: cfg.Capacity, Values: cfg.Values})
	res := refResult{kinds: map[string]bool{}}
	index := map[string]int32{string(init.AppendSnapshot(nil)): 0}
	queue, depth, preds := []*engine.System{init}, []int{0}, [][]int32{nil}
	quiet := []bool{refInspect(p, cfg, init, res.kinds)}
	for i := 0; i < len(queue); i++ {
		s := queue[i]
		queue[i] = nil // expanded once, then only its index is needed
		rules := s.Rules()
		if len(rules) == 0 && !quiet[i] {
			res.kinds["deadlock"] = true
		}
		for _, r := range rules {
			n := s.Clone()
			performs, err := n.Apply(r)
			if err != nil {
				res.kinds["error"] = true
				continue
			}
			res.edges++
			for _, pf := range performs {
				if cfg.CheckValues && pf.Access == ir.AccessLoad && !pf.Exempt && pf.Value != n.LastWrite {
					res.kinds["data-value"] = true
				}
			}
			if !p.Ordered {
				sortBags(n)
			}
			key := string(n.AppendSnapshot(nil))
			j, seen := index[key]
			if !seen {
				j = int32(len(queue))
				index[key] = j
				queue, depth, preds = append(queue, n), append(depth, depth[i]+1), append(preds, nil)
				quiet = append(quiet, refInspect(p, cfg, n, res.kinds))
				res.depth = max(res.depth, depth[j])
			}
			preds[j] = append(preds[j], int32(i))
		}
	}
	res.states = len(queue)
	reach := append([]bool(nil), quiet...)
	for changed := true; changed; {
		changed = false
		for j, ok := range reach {
			for _, i := range preds[j] {
				if ok && !reach[i] {
					reach[i], changed = true, true
				}
			}
		}
	}
	for j := range reach {
		if quiet[j] {
			res.quiescent++
		}
		if !reach[j] {
			res.kinds["stuck"] = true
		}
	}
	return res
}

// sortBags puts each bag of an unordered network into one fixed order —
// the one normalisation the reference is allowed: the snapshot keeps
// arrival order, which on such a network is not part of the state. n is
// the reference's private clone, so reordering its list in place is safe.
func sortBags(n *engine.System) {
	msgs := n.Net.Msgs()
	for i := 0; i < len(msgs); {
		j := i + 1
		for j < len(msgs) && n.Net.QueueOf(&msgs[j]) == n.Net.QueueOf(&msgs[i]) {
			j++
		}
		bag := msgs[i:j]
		sort.Slice(bag, func(a, b int) bool { return bag[a].String() < bag[b].String() })
		i = j
	}
}

// refInspect records the state invariants s breaks and reports whether s
// is quiescent: nothing in flight or deferred, every controller in a
// state the protocol declares stable.
func refInspect(p *ir.Protocol, cfg Config, s *engine.System, kinds map[string]bool) (quiescent bool) {
	hits := func(c *engine.Ctrl, a ir.AccessType) bool { // a is a hit that stays put in c's state
		for _, t := range p.Cache.Find(c.State, ir.AccessEvent(a)) {
			for _, act := range t.Actions {
				if act.Op == ir.AHit && !t.Stall && t.Next == t.From {
					return true
				}
			}
		}
		return false
	}
	quiescent = s.Net.InFlight() == 0 && len(s.Dir.DeferQ) == 0 && p.Dir.State(s.Dir.State).Kind == ir.Stable
	writers, readers := 0, 0
	for _, c := range s.Caches {
		stable := p.Cache.State(c.State).Kind == ir.Stable
		quiescent = quiescent && stable && len(c.DeferQ) == 0
		load, store := hits(c, ir.AccessLoad), hits(c, ir.AccessStore)
		switch {
		case stable && store:
			writers++
		case stable && load:
			readers++
		}
		if cfg.CheckValues && (load || stable && store) && c.Data() != s.LastWrite {
			kinds["data-value"] = true
		}
	}
	if cfg.CheckSWMR && (writers > 1 || writers == 1 && readers > 0) {
		kinds["SWMR"] = true
	}
	return quiescent
}

// TestReferenceExplorer holds verify.Check to the reference over the
// registry × core.Modes at 2 caches (ROADMAP item 1, parts a and b):
// (a) the verdicts agree — both clean, or the violation the checker stops
// at is of a kind the reference found; (b) with symmetry off the
// optimized checker reports exactly the reference's States, Edges, Depth
// and Quiescent at Parallelism 1 and 4, exact and fingerprint.
func TestReferenceExplorer(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every registry protocol unreduced, five times")
	}
	for _, e := range protocols.All {
		for _, mode := range core.Modes {
			p := gen(t, e.Source, optsForMode(t, mode))
			cfgs := []Config{reduceCfg(e.Name)}
			if e.Name == "TSO_CC" { // and once with the invariants it breaks by design
				cfgs = append(cfgs, QuickConfig())
			}
			for _, cfg := range cfgs {
				name := fmt.Sprintf("%s %s swmr=%v", e.Name, mode, cfg.CheckSWMR)
				ref := refExplore(p, cfg)
				got := Check(p, cfg)
				if got.OK() != (len(ref.kinds) == 0) {
					t.Errorf("%s: checker %s, reference found %v", name, got, ref.kinds)
				}
				for _, v := range got.Violations {
					if !ref.kinds[v.Kind] {
						t.Errorf("%s: checker reports %s, the reference only %v", name, v.Kind, ref.kinds)
					}
				}
				if len(ref.kinds) > 0 {
					continue // the checker stops at its first violation: no counts to compare
				}
				cfg.Symmetry = false
				for _, par := range []int{1, 4} {
					for _, fp := range []bool{false, true} {
						cfg.Parallelism, cfg.Fingerprint = par, fp
						r := Check(p, cfg)
						if r.States != ref.states || r.Edges != ref.edges || r.Depth != ref.depth || r.Quiescent != ref.quiescent {
							t.Errorf("%s P=%d fingerprint=%v: states/edges/depth/quiescent = %d/%d/%d/%d, reference %d/%d/%d/%d",
								name, par, fp, r.States, r.Edges, r.Depth, r.Quiescent, ref.states, ref.edges, ref.depth, ref.quiescent)
						}
					}
				}
			}
		}
	}
}
