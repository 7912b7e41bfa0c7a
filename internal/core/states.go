package core

import (
	"fmt"
	"sort"
	"strings"

	"protogen/internal/ir"
)

// position is one await node of one transaction: the Step-2 skeleton of a
// transient state. Derived (Case-2) states reuse a position plus a chain of
// absorbed logical transitions.
type position struct {
	txn    *ir.Transaction
	await  *ir.Await
	root   bool
	stale  bool           // synthesized stale-completion position (§V-D1, access vanished)
	finals []ir.StateName // break finals reachable from this subtree
	name   ir.StateName   // base transient-state name (chain letters appended for derived states)
}

// finalClasses returns the directory-visible classes of the position's
// reachable finals.
func (g *gen) finalClasses(p *position) []ir.StateName {
	seen := map[ir.StateName]bool{}
	var out []ir.StateName
	for _, f := range p.finals {
		c := g.cls[f]
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// stateKey identifies a transient state: a position plus the absorbed
// later-transaction chain.
type stateKey struct {
	pos    string // position id (await ID, or synthetic for stale positions)
	route  ir.StateName
	chain  string // "/"-joined chain states
	defers string // "/"-joined absorbed forwarded-request types
}

func makeKey(p *position, route ir.StateName, chain []ir.StateName, defers []ir.MsgType) stateKey {
	cs := make([]string, len(chain))
	for i, c := range chain {
		cs[i] = string(c)
	}
	ds := make([]string, len(defers))
	for i, d := range defers {
		ds[i] = string(d)
	}
	return stateKey{pos: p.await.ID, route: route, chain: strings.Join(cs, "/"), defers: strings.Join(ds, "/")}
}

// gen carries all generation context.
type gen struct {
	spec  *ir.Spec
	opts  Options
	cls   map[ir.StateName]ir.StateName // cache stable state -> class representative
	fwds  map[ir.MsgType]*fwdInfo
	dataM map[ir.MsgType]bool

	cache *ir.Machine
	dir   *ir.Machine
	p     *ir.Protocol

	positions map[string]*position // await ID -> position
	rootPos   map[string]*position // transaction ID -> root position
	byKey     map[stateKey]ir.StateName
	queue     []workItem

	putAck     map[ir.MsgType]ir.MsgType // put request -> acknowledgment message
	reinterp   map[ir.MsgType]ir.MsgType // request -> access-equivalent request
	usedAcc    map[ir.AccessType]bool    // accesses appearing in the cache SSP
	staleRoots map[string]ir.StateName   // stale-completion state dedup
	staleSeq   int
}

// workItem is one transient state awaiting Step-3 processing.
type workItem struct {
	name   ir.StateName
	pos    *position
	route  ir.StateName
	chain  []ir.StateName
	defers []ir.MsgType
}

// letter returns D for data-carrying messages and A for acknowledgments.
func (g *gen) letter(m ir.MsgType) string {
	if g.dataM[m] {
		return "D"
	}
	return "A"
}

// suffix computes the awaited-message suffix of a position (e.g. "AD" for
// a position awaiting data and acks), from its direct cases only.
func (g *gen) suffix(a *ir.Await) string {
	set := map[string]bool{}
	for _, c := range a.Cases {
		set[g.letter(c.Msg)] = true
	}
	letters := make([]string, 0, len(set))
	for l := range set {
		letters = append(letters, l)
	}
	sort.Strings(letters)
	return strings.Join(letters, "")
}

// uniqueName reserves a state name on machine m, disambiguating collisions.
func uniqueName(m *ir.Machine, base ir.StateName) ir.StateName {
	if m.State(base) == nil {
		return base
	}
	for i := 2; ; i++ {
		n := ir.StateName(fmt.Sprintf("%s_%d", base, i))
		if m.State(n) == nil {
			return n
		}
	}
}

// collectFinals gathers the break finals reachable from an await subtree.
func collectFinals(a *ir.Await) []ir.StateName {
	seen := map[ir.StateName]bool{}
	var out []ir.StateName
	a.EachAwait(func(x *ir.Await) {
		for _, c := range x.Cases {
			if c.Kind == ir.CaseBreak && !seen[c.Final] {
				seen[c.Final] = true
				out = append(out, c.Final)
			}
		}
	})
	return out
}

// primaryFinal is the first break final of the transaction's whole tree,
// used for base naming (IS^D is named after S even though MESI's version
// can also end in E).
func primaryFinal(t *ir.Transaction) ir.StateName {
	if t.Await == nil {
		return t.Final
	}
	fs := collectFinals(t.Await)
	if len(fs) == 0 {
		return t.Final
	}
	return fs[0]
}

// addPositions creates the Step-2 position set of one cache or directory
// transaction (paper §V-C): one position per await node.
func (g *gen) addPositions(m *ir.Machine, t *ir.Transaction) (*position, error) {
	if t.Await == nil {
		return nil, nil
	}
	prim := primaryFinal(t)
	var first *position
	var err error
	t.Await.EachAwait(func(a *ir.Await) {
		if err != nil {
			return
		}
		p := &position{
			txn:    t,
			await:  a,
			root:   a == t.Await,
			finals: collectFinals(a),
		}
		var base ir.StateName
		if m.Kind == ir.KindDirectory {
			// Directory transients are named after the target plus the
			// awaited suffix (primer's S^D).
			base = ir.StateName(fmt.Sprintf("%s%s", prim, g.suffix(a)))
		} else {
			base = ir.StateName(fmt.Sprintf("%s%s%s", t.Start, prim, g.suffix(a)))
		}
		p.name = uniqueName(m, base)
		g.positions[a.ID] = p
		if p.root {
			g.rootPos[t.ID] = p
			first = p
		}
		if m.Kind == ir.KindCache {
			// ensureState registers the state in byKey and enqueues it, so
			// later descends reuse it instead of duplicating.
			if _, e := g.ensureState(p, "", nil, nil); e != nil {
				err = e
			}
			return
		}
		st := g.newStateFor(p, "", nil, nil)
		if e := m.AddState(st); e != nil {
			err = e
		}
	})
	return first, err
}

// newStateFor builds the ir.State record of (position, chain, defers).
func (g *gen) newStateFor(p *position, route ir.StateName, chain []ir.StateName, defers []ir.MsgType) *ir.State {
	name := p.name
	for _, c := range chain {
		name = ir.StateName(string(name) + string(c))
	}
	st := &ir.State{
		Name:     name,
		Kind:     ir.Transient,
		Origin:   p.txn.Start,
		Target:   primaryFinal(p.txn),
		Chain:    append([]ir.StateName(nil), chain...),
		RespSeen: !p.root,
		Access:   ir.AccessNone,
		PosID:    p.await.ID,
		Defers:   append([]ir.MsgType(nil), defers...),
		Stale:    p.stale,
	}
	if p.txn.Trigger.Kind == ir.EvAccess {
		st.Access = p.txn.Trigger.Access
	}
	// State set (paper §V-B): the start and final classes while the
	// response is outstanding, the final classes once it is seen, and a
	// single class once a forward is absorbed or the transaction is stale.
	switch {
	case len(chain) > 0:
		st.StateSet = []ir.StateName{g.cls[chain[len(chain)-1]]}
	case p.stale:
		st.StateSet = []ir.StateName{g.cls[p.txn.Start]}
	case p.root:
		set := []ir.StateName{g.cls[p.txn.Start]}
		for _, c := range g.finalClasses(p) {
			if !contains(set, c) {
				set = append(set, c)
			}
		}
		st.StateSet = set
	default:
		st.StateSet = g.finalClasses(p)
	}
	return st
}

func contains(xs []ir.StateName, x ir.StateName) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// chainEnd returns the logical final stable state of a work item.
func (w *workItem) chainEnd() ir.StateName {
	if len(w.chain) > 0 {
		return w.chain[len(w.chain)-1]
	}
	return ""
}
