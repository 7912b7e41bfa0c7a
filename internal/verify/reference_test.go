package verify

import (
	"context"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
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
// predecessor lists until nothing changes. Which invariants hold is the
// checker's rule, ir.Protocol.Acquires: SWMR and data-value for a
// protocol without acquire fences, neither for one with them.
type refResult struct {
	states, edges, depth, quiescent int
	stuck                           int              // states quiescence is unreachable from
	kinds                           map[string]bool  // violation kinds seen anywhere in the space
	index                           map[string]int32 // the reachable set: snapshot bytes → discovery index
	rest                            map[string]bool  // the quiescent states, keyed by refProject
}

// refExplore explores p at cfg's scale. force holds p to SWMR and the
// data-value invariant even when it has acquire fences, which the
// checker never does: it shows what a weak protocol breaks by design.
func refExplore(p *ir.Protocol, cfg Config, force bool) refResult {
	coherent := force || !p.Acquires()
	init := engine.NewSystem(p, engine.Config{Caches: cfg.Caches, Capacity: cfg.Capacity, Values: cfg.Values})
	res := refResult{kinds: map[string]bool{}, rest: map[string]bool{}}
	index := map[string]int32{string(init.AppendSnapshot(nil)): 0}
	queue, depth, preds := []*engine.System{init}, []int{0}, [][]int32{nil}
	inspect := func(s *engine.System) bool {
		q := refInspect(p, coherent, s, res.kinds)
		if q {
			res.rest[refProject(s)] = true
		}
		return q
	}
	quiet := []bool{inspect(init)}
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
				if coherent && pf.Access == ir.AccessLoad && !pf.Exempt && pf.Value != n.LastWrite {
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
				quiet = append(quiet, inspect(n))
				res.depth = max(res.depth, depth[j])
			}
			preds[j] = append(preds[j], int32(i))
		}
	}
	res.states, res.index = len(queue), index
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
			res.stuck++
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

// refInspect records the state invariants s breaks — SWMR and data-value
// are checked only when coherent — and reports whether s
// is quiescent: nothing in flight or deferred, every controller in a
// state the protocol declares stable.
func refInspect(p *ir.Protocol, coherent bool, s *engine.System, kinds map[string]bool) (quiescent bool) {
	hits := func(c *engine.Ctrl, a ir.AccessType) bool { // a is a hit that stays put in c's state
		for _, t := range p.Cache.Trans { // a scan of its own, not the ir index
			if t.From != c.State || t.Ev != ir.AccessEvent(a) {
				continue
			}
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
		if coherent && (load || stable && store) && c.Data() != s.LastWrite {
			kinds["data-value"] = true
		}
	}
	if coherent && (writers > 1 || writers == 1 && readers > 0) {
		kinds["SWMR"] = true
	}
	return quiescent
}

// refProject keys a quiescent state by what the SSP itself declares:
// every controller's state name, its data value and the variables its
// MachineSpec declares (ints and id-sets, which the generator copies to
// ir.Machine.Vars), plus LastWrite. Names, not a design's state indices
// or snapshot bytes, so the stalling, non-stalling and deferred designs
// of one SSP — each an implementation of the same atomic protocol —
// can be held to one set of keys.
func refProject(s *engine.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "last=%d", s.LastWrite)
	for _, c := range append([]*engine.Ctrl{s.Dir}, s.Caches...) {
		fmt.Fprintf(&b, " | %s data=%d", c.State, c.Data())
		for _, v := range c.L.M.Vars {
			if v.Type == ir.VIDSet {
				fmt.Fprintf(&b, " %s=%b", v.Name, c.Masks[c.L.SetIdx[v.Name]])
			} else {
				fmt.Fprintf(&b, " %s=%d", v.Name, c.Ints[c.L.IntIdx[v.Name]])
			}
		}
	}
	return b.String()
}

// permute returns s with cache i renamed perm[i], written against the
// fields and not the Encoder the checker canonicalizes with: controllers
// change places, and every cache id held anywhere is rewritten — id
// variables (Layout.IntIsVID), sharer-mask bits, Src/Dst/Req of deferred
// and in-flight messages — while the directory's id and NoID stay. The
// in-flight list is put back in queue order, arrival order kept within a
// queue, which is what the snapshot records.
func permute(s *engine.System, perm []int) *engine.System {
	n := s.Clone()
	id := func(v int) int {
		if v >= 0 && v < len(perm) {
			return perm[v]
		}
		return v
	}
	msg := func(m *engine.Msg) { m.Src, m.Dst, m.Req = id(m.Src), id(m.Dst), id(m.Req) }
	ctrl := func(c *engine.Ctrl) {
		for i, v := range c.Ints {
			if c.L.IntIsVID[i] {
				c.Ints[i] = id(v)
			}
		}
		for i, mask := range c.Masks {
			c.Masks[i] = mask &^ (1<<len(perm) - 1) // the directory's bit stays
			for b := range perm {
				c.Masks[i] |= mask >> b & 1 << perm[b]
			}
		}
		for i := range c.DeferQ {
			msg(&c.DeferQ[i])
		}
	}
	moved := make([]*engine.Ctrl, len(perm))
	for i, c := range n.Caches {
		ctrl(c)
		c.ID, moved[perm[i]] = perm[i], c
	}
	n.Caches = moved
	ctrl(n.Dir)
	msgs := n.Net.Msgs()
	for i := range msgs {
		msg(&msgs[i])
	}
	sort.SliceStable(msgs, func(a, b int) bool { return n.Net.QueueOf(&msgs[a]) < n.Net.QueueOf(&msgs[b]) })
	return n
}

// refOrbits counts the orbits of the reference's reachable set under
// cache renaming with a union-find over its index. Swapping neighbours
// generates every permutation, so joining each state to its images under
// those swaps joins it to its whole orbit.
func refOrbits(t *testing.T, p *ir.Protocol, cfg Config, index map[string]int32) int {
	root := make([]int32, len(index))
	for i := range root {
		root[i] = int32(i)
	}
	find := func(i int32) int32 {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	s := engine.NewSystem(p, engine.Config{Caches: cfg.Caches, Capacity: cfg.Capacity, Values: cfg.Values})
	perm := make([]int, cfg.Caches)
	for c := range perm {
		perm[c] = c
	}
	orbits := len(index)
	for key, i := range index {
		s.Restore([]byte(key))
		for a := 0; a+1 < cfg.Caches; a++ {
			perm[a], perm[a+1] = a+1, a
			img := permute(s, perm)
			perm[a], perm[a+1] = a, a+1
			if !p.Ordered {
				sortBags(img)
			}
			j, ok := index[string(img.AppendSnapshot(nil))]
			if !ok {
				t.Fatalf("state %d with caches %d and %d swapped is not in the reference's reachable set", i, a, a+1)
			}
			if ri, rj := find(i), find(j); ri != rj {
				root[ri] = rj
				orbits--
			}
		}
	}
	return orbits
}

// TestReferenceExplorer holds verify.Check to the reference over the
// registry × core.Modes at 2 caches (ROADMAP item 1, parts a to d):
// (a) the verdicts agree — both clean, or the violation the checker stops
// at is of a kind the reference found; (b) with symmetry off the
// optimized checker reports exactly the reference's States, Edges, Depth
// and Quiescent at Parallelism 1 and 4, exact and fingerprint; (c) with
// symmetry on its States is the number of orbits of the reference's
// reachable set under cache renaming; (d) with Reduce on and symmetry
// off it passes, and every state it stored — rebuilt by replaying the
// stored edge ordinals (checker.trace) and keyed the way the reference
// keys — is one the reference reached. (d) is also the property test of
// the edge columns: every recorded edge, on every protocol and mode,
// replays to the very state it was recorded for, which is a reachable one.
// TSO_CC passes on both sides, since its acquire fences exempt it from
// SWMR and data-value; the reference forced to check them finds both
// broken in every mode, which is that exemption's reason. Last (ROADMAP
// item 11, part o): the three modes implement one atomic SSP, so at
// QuickConfig their quiescent states, projected by refProject, are one
// set per protocol: pinned by size, and each size is the reference's
// Quiescent count, so the projection merges no two quiescent states of
// one design.
func TestReferenceExplorer(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every registry protocol unreduced, seven times")
	}
	restSizes := map[string]int{"MSI": 415, "MESI": 437, "MOSI": 695, "MSI_Upgrade": 415, "MSI_Unordered": 415, "TSO_CC": 131}
	for _, e := range protocols.All {
		rests := map[string]map[string]bool{} // mode → its quiescent states
		for _, mode := range core.Modes {
			p := gen(t, e.Source, optsForMode(t, mode))
			cfg := QuickConfig()
			name := e.Name + " " + mode
			if p.Acquires() {
				if got := joinKinds(refExplore(p, cfg, true).kinds); got != "SWMR,data-value" {
					t.Errorf("%s: the reference held to SWMR and data-value finds %q, want both broken", name, got)
				}
			}
			ref := refExplore(p, cfg, false)
			rests[mode] = ref.rest
			if len(ref.rest) != ref.quiescent {
				t.Errorf("%s: %d quiescent states project to %d keys", name, ref.quiescent, len(ref.rest))
			}
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
			orbits := refOrbits(t, p, cfg, ref.index)
			cfg.Symmetry, cfg.Parallelism = true, 1
			for _, fp := range []bool{false, true} {
				cfg.Fingerprint = fp
				if r := Check(p, cfg); r.States != orbits {
					t.Errorf("%s fingerprint=%v: %d states with symmetry on, the reference's %d states fall into %d orbits",
						name, fp, r.States, ref.states, orbits)
				}
			}
			cfg.Symmetry, cfg.Fingerprint, cfg.Reduce = false, false, true
			c := explore(context.Background(), p, cfg)
			if !c.res.OK() {
				t.Errorf("%s: reduced checker %s, the reference is clean", name, c.res)
			}
			enc := engine.NewEncoder(p)
			for i := range c.parent {
				_, s := c.trace(i)
				// Any enabled rule leads somewhere reachable, so membership
				// alone would pass a wrong ordinal: the replay must also end
				// in the state the checker stored under index i.
				key := enc.Canonical(s, nil)
				if j, ok := c.visited.Lookup(engine.Fingerprint(key), key); !ok || int(j) != i {
					t.Fatalf("%s: the reduced run's state %d replays to its state %d (stored: %v)", name, i, j, ok)
				}
				if !p.Ordered {
					sortBags(s)
				}
				if _, ok := ref.index[string(s.AppendSnapshot(nil))]; !ok {
					t.Fatalf("%s: the reduced run's state %d replays to a state the reference never reached", name, i)
				}
			}
		}
		want := rests[core.Modes[0]]
		if len(want) != restSizes[e.Name] {
			t.Errorf("%s %s: %d quiescent states, pinned %d", e.Name, core.Modes[0], len(want), restSizes[e.Name])
		}
		for _, mode := range core.Modes[1:] {
			if got := rests[mode]; !maps.Equal(got, want) {
				t.Errorf("%s: %d %s quiescent states, %d %s; only %s has %q, only %s has %q",
					e.Name, len(got), mode, len(want), core.Modes[0],
					mode, refOnlyIn(got, want), core.Modes[0], refOnlyIn(want, got))
			}
		}
	}
}

// retargetMutants are non-stalling MSI with one cache transition sent to
// the wrong stable state, built on the generated ir like the stuck
// mutants. kinds is the set of violation kinds both explorers find,
// states the checker's count at QuickConfig with no violation cap, and
// rest the number of the reference's quiescent keys (refProject), which
// the registry MSI's modes pin at 415.
var retargetMutants = []struct {
	name         string
	from         ir.StateName
	msg          ir.MsgType
	next         ir.StateName
	kinds        string
	states, rest int
}{
	// The old owner keeps a readable copy while the new one writes.
	{"MSI_M_Fwd_GetM_S", "M", "Fwd_GetM", "S", "SWMR,data-value", 14603, 687},
	// Coherent, so the checker passes it, but not the SSP: the SSP's
	// owner keeps S after a Fwd_GetS. Only the quiescent sets tell.
	{"MSI_M_Fwd_GetS_I", "M", "Fwd_GetS", "I", "", 16416, 503},
}

// TestRetargetMutants holds the checker's SWMR and data-value verdicts to
// the reference's on a protocol that breaks them, and shows that the
// three-mode quiescent-set check of TestReferenceExplorer catches a
// protocol the checker passes: the mutant's quiescent keys are not the
// registry MSI's.
func TestRetargetMutants(t *testing.T) {
	cfg := QuickConfig()
	want := refExplore(gen(t, protocols.MSI, optsForMode(t, core.Modes[0])), cfg, false).rest
	for _, m := range retargetMutants {
		p := mutate(t, "MSI", "nonstalling", m.from, m.msg, "", func(tr *ir.Transition) { tr.Next = m.next })
		ref := refExplore(p, cfg, false)
		all := cfg
		all.MaxViolations = math.MaxInt
		r := Check(p, all)
		got := map[string]bool{}
		for _, v := range r.Violations {
			got[v.Kind] = true
		}
		if joinKinds(got) != m.kinds || joinKinds(ref.kinds) != m.kinds {
			t.Errorf("%s: checker finds %q, reference %q, want %q", m.name, joinKinds(got), joinKinds(ref.kinds), m.kinds)
		}
		if r.States != m.states || len(ref.rest) != m.rest {
			t.Errorf("%s: %d states and %d quiescent keys, pinned %d and %d", m.name, r.States, len(ref.rest), m.states, m.rest)
		}
		if maps.Equal(ref.rest, want) {
			t.Errorf("%s: its quiescent states are the registry MSI's", m.name)
		}
	}
}

// joinKinds lists a set of violation kinds sorted and comma-joined.
func joinKinds(set map[string]bool) string {
	kinds := make([]string, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return strings.Join(kinds, ",")
}

// refOnlyIn returns the least key of a that b lacks, or "".
func refOnlyIn(a, b map[string]bool) string {
	least := ""
	for k := range a {
		if !b[k] && (least == "" || k < least) {
			least = k
		}
	}
	return least
}
