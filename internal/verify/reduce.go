package verify

// Partial-order reduction (Config.Reduce).
//
// The reducer is an eager persistent-set collapse: whenever a successor
// state has a cache node n whose ENTIRE enabled-rule set E_n is
// statically collapse-fusible (internal/depend) and n is free (below),
// the exploration does not store that state. Instead it executes every rule
// of E_n immediately — branching when |E_n| > 1 — and recursively
// collapses the results; only the resulting normal forms are stored.
// E_n is exactly the ample set of classic POR, but it is taken eagerly
// in all branches rather than deferred: interleavings where other nodes
// act before n are pruned, while every rule of every stored state is
// still expanded.
//
// Eagerness is what makes the reduction strong and simple at once.
// Intermediate states (idle caches that have not issued yet, ack and
// unblock collection tails, Put_Ack consumption) are never stored, so
// they cannot multiply with concurrent activity elsewhere — the classic
// deferred-ample formulation prunes the same EDGES but leaks the same
// STATES back in through other parents. And because nothing is ever
// deferred — every enabled rule of every stored state is either emitted
// or executed inside the collapse — there is no ignoring problem and no
// cycle proviso: a bounded recursion depth (maxFuseDepth) is the only
// termination guard, and a capped chain just stores a legitimate
// intermediate, which is sound by construction.
//
// A node n is free when the rest of the system holds no unguarded
// reference to it: no in-flight or deferred message naming n heading
// elsewhere, no id variable at another cache equal to n, and any
// directory owner/sharer reference to n is harmless — every message
// type such a reference can emit (depend's OwnerSends/SharerSends)
// provably stalls at n's current state, so it waits instead of racing
// n's rules.
//
// Soundness rests on two machine-checked pillars:
//
//  1. Monotone fusibility (static, internal/depend): a collapsed rule
//     keeps the checked valuation monotone. It never writes the global
//     last-write register (store completions are excluded via a
//     pending-access fixpoint), never overwrites data the checker is
//     comparing, and only GAINS its cache's reader/writer/hit
//     classification bits; a performed load must land in a checked
//     state. Every check a pruned interleaving would have run is then
//     subsumed by a stored state that checks at least as much — and
//     since every stored state is genuinely reachable, deferring checks
//     to it can neither lose nor invent a verdict. Rules that may error
//     stay fusible: the collapse surfaces the same error leaf the full
//     exploration would.
//  2. Id-freeness (static seed + dynamic scan): node ids originate only
//     from message src stamping and propagate only through pure id
//     expressions (depend's taint analysis rejects the protocol
//     otherwise). If node n is free, no sequence of non-n rules can
//     deliver to n — anything a guarded reference sends stalls at n's
//     (unchanging) state — or observe n before n acts. So non-n rules
//     commute with E_n, stay enabled across it, and every pruned
//     interleaving reaches a stored state with identical valuation.
//
// Liveness survives the collapse through the quiet flag: a normal form
// is marked quiescence-representing if any state on its fusion path
// (itself included) is quiescent, so "EF quiescent" targets are
// preserved even when the quiescent state itself was collapsed through.
// Deadlocks cannot be collapsed away (a fusible node has an enabled
// rule), and a global headroom guard stops fusion near channel capacity
// so send-overflow errors cannot be reordered past their witnesses.
// Directory rules are never collapsed: the directory serializes the
// protocol, and every message it handles can change global bookkeeping.
//
// Config.CommuteAudit validates both pillars dynamically at every
// collapse point: each fused rule must keep the checked valuation
// monotone (pillar 1), and sampled (fused, deferred) rule pairs must
// commute — identical final states in both orders (pillar 2). Any
// discrepancy is a hard "por-audit" violation.

import (
	"fmt"
	"sort"

	"protogen/internal/depend"
	"protogen/internal/engine"
	"protogen/internal/ir"
)

// testCorruptFusion deliberately corrupts the reducer for the mutation
// test: the static fusibility check is skipped, so non-monotone rules
// (invalidations and downgrades that drop classifications, store
// completions that write the last-write register) get fused. Only the
// commutation audit can catch the resulting unsoundness;
// TestCommuteAuditCatchesCorruptRelation asserts it does.
var testCorruptFusion = false

// reducer holds the static dependence facts bridged into engine index
// space: fusibility tables keyed by (Ctrl.StIdx, access type) and
// (Ctrl.StIdx, Msg.TypeIdx), and the id-carrying Ints slots per machine
// for the runtime id-freeness scan.
type reducer struct {
	caches int
	// fuseAccess[stateIdx][accessType] / fuseMsg[stateIdx][msgIdx]:
	// true = the class is collapse-fusible (depend.CacheAccessFuse /
	// CacheMsgFuse). State indices follow the cache machine's Layout
	// (same order as depend's tables by construction).
	fuseAccess [][]bool
	fuseMsg    [][]bool
	// cacheIDSlots / dirIDSlots flag the Ints slots that may hold a
	// node id (depend's taint analysis mapped through Layout.IntIdx).
	cacheIDSlots []bool
	dirIDSlots   []bool
	// stallMsg[stateIdx][msgIdx]: delivery provably stalls at that cache
	// state. ownerSendIdx / sharerSendIdx list the message types some
	// class sends through an owner variable / sharer set — the types a
	// stored reference to a node can turn into a message to it.
	stallMsg      [][]bool
	ownerSendIdx  []int
	sharerSendIdx []int
	// ordMargin / bagMargin: required free capacity per ordered queue /
	// unordered class bag before fusion is allowed. A single rule sends
	// at most ordMargin messages into one ordered queue and at most
	// bagMargin (a full sharer broadcast) into one bag; with this
	// headroom, no pruned interleaving can overflow where the collapsed
	// one did not.
	ordMargin int
	bagMargin int
}

func newReducer(dep *depend.Analysis, sys *engine.System) *reducer {
	red := &reducer{
		caches:     sys.Cfg.Caches,
		fuseAccess: dep.CacheAccessFuse,
		fuseMsg:    dep.CacheMsgFuse,
		ordMargin:  2,
		bagMargin:  sys.Cfg.Caches + 2,
	}
	red.cacheIDSlots = idSlots(sys.CacheL, dep.CacheIDVars)
	red.dirIDSlots = idSlots(sys.DirL, dep.DirIDVars)
	red.stallMsg = dep.CacheMsgStall
	red.ownerSendIdx = sendIdx(dep.OwnerSends)
	red.sharerSendIdx = sendIdx(dep.SharerSends)
	return red
}

func sendIdx(sends []bool) []int {
	var out []int
	for i, s := range sends {
		if s {
			out = append(out, i)
		}
	}
	return out
}

func idSlots(l *engine.Layout, names []string) []bool {
	out := make([]bool, len(l.IntVars))
	for _, name := range names {
		if i, ok := l.IntIdx[name]; ok { //vethotpath:ignore — cold: once per Check, building the reducer
			out[i] = true
		}
	}
	return out
}

// headroom reports whether every channel has enough free capacity that
// collapsing rules cannot reorder a send-overflow error out of (or into)
// existence.
func (red *reducer) headroom(net *engine.Network) bool {
	limit := net.Capacity
	margin := red.ordMargin
	if !net.Ordered {
		limit = net.Capacity * net.Nodes * net.Nodes
		margin = red.bagMargin
	}
	// An empty queue needs its margin too: when the margin alone exceeds
	// the limit nothing may fuse, however little is in flight.
	if margin > limit {
		return false
	}
	msgs := net.Msgs()
	queue, queued := -1, 0
	for i := range msgs {
		if q := net.QueueOf(&msgs[i]); q != queue {
			queue, queued = q, 0
		}
		if queued++; queued+margin > limit {
			return false
		}
	}
	return true
}

// fusibleRule reports whether rule r (which must execute at a cache
// node) belongs to a collapse-fusible class in the current state.
func (red *reducer) fusibleRule(sys *engine.System, r engine.Rule) bool {
	if r.Kind == engine.RuleAccess {
		return red.fuseAccess[sys.Caches[r.Cache].StIdx][int(r.Access)]
	}
	ti := r.Del.Msg.TypeIdx()
	if ti < 0 {
		return false // unstamped message: cannot classify
	}
	return red.fuseMsg[sys.Caches[r.Del.Msg.Dst].StIdx][ti]
}

// nodeFree reports whether no part of the system outside node n holds an
// unguarded reference to n. Messages and deferred entries naming n away
// from n, and id variables at OTHER CACHES equal to n, always block:
// their handlers can aim arbitrary sends at n. A directory owner or
// sharer reference to n is tolerated when every message type it can emit
// (ownerSendIdx / sharerSendIdx) provably stalls at n's current state —
// such a send may still happen on a pruned interleaving, but the
// resulting message just waits at n instead of racing n's own rules.
// Since only n's own rules can move n off its state, the stall guarantee
// is stable, and the id-purity facts (depend) make the whole argument
// inductive: a free rest-of-system can never enable a rule at n before n
// acts.
func (red *reducer) nodeFree(sys *engine.System, n int) bool {
	msgs := sys.Net.Msgs()
	for i := range msgs {
		if msgs[i].Dst != n && (msgs[i].Src == n || msgs[i].Req == n) {
			return false
		}
	}
	st := sys.Caches[n].StIdx
	for j, cc := range sys.Caches {
		if j == n {
			continue
		}
		if !red.ctrlFree(cc, red.cacheIDSlots, n, st, nil) {
			return false
		}
	}
	return red.ctrlFree(sys.Dir, red.dirIDSlots, n, st, red.ownerSendIdx)
}

// ctrlFree checks one controller for references to n; st is n's current
// state index. ownerIdx is the send-type list guarding this controller's
// id-variable references (nil = never tolerated, the cache case).
func (red *reducer) ctrlFree(c *engine.Ctrl, ids []bool, n int, st int, ownerIdx []int) bool {
	for i, v := range c.Ints {
		if v == n && ids[i] {
			if ownerIdx == nil || !red.allStall(st, ownerIdx) {
				return false
			}
		}
	}
	bit := uint32(1) << uint(n)
	for _, m := range c.Masks {
		if m&bit != 0 && !red.allStall(st, red.sharerSendIdx) {
			return false
		}
	}
	for i := range c.DeferQ {
		if c.DeferQ[i].Src == n || c.DeferQ[i].Req == n {
			return false
		}
	}
	return true
}

// allStall reports whether every listed message type provably stalls at
// cache state st.
func (red *reducer) allStall(st int, idx []int) bool {
	for _, mi := range idx {
		if !red.stallMsg[st][mi] {
			return false
		}
	}
	return true
}

// maxFuseDepth bounds one successor's collapse recursion. Chains are
// short in practice (a fused delivery consumes a pending message, a
// fused issue makes its node un-free); the cap only ensures a
// pathological protocol cannot spin here, and a capped chain just
// stores a legitimate intermediate — still a deterministic function of
// the state, still sound.
const maxFuseDepth = 64

// fuseLevel is one collapse recursion level's scratch.
type fuseLevel struct {
	rules []engine.Rule // AppendRules scratch for this level's state
	en    []int         // indices into rules of the fused node's rule set
	node  int           // the fused cache node
	// scr is the System this level's branches run on when the fused set
	// has several rules (all but the last, which applies in place); built
	// the first time the level branches.
	scr *engine.System
}

// fusible finds the lowest cache node n whose entire enabled-rule set is
// invisible and whose node is free, filling w.lvls[depth] (rules + en)
// and returning the E_n index list — nil when no node qualifies or
// channels lack headroom. Deterministic: a pure function of the state.
func (w *worker) fusible(sys *engine.System, depth int) []int {
	red := w.c.red
	if !red.headroom(sys.Net) {
		return nil
	}
	for len(w.lvls) <= depth {
		w.lvls = append(w.lvls, fuseLevel{})
	}
	lvl := &w.lvls[depth]
	lvl.rules = sys.AppendRules(lvl.rules[:0])
	rules := lvl.rules
	for len(w.fuseCnt) < red.caches {
		w.fuseCnt = append(w.fuseCnt, 0)
	}
	for n := 0; n < red.caches; n++ {
		w.fuseCnt[n] = 0
	}
	for i := 0; i < len(rules); i++ {
		n := rules[i].Cache
		if rules[i].Kind == engine.RuleDeliver {
			n = rules[i].Del.Msg.Dst
		}
		if n < red.caches {
			w.fuseCnt[n]++
		}
	}
	for n := 0; n < red.caches; n++ {
		if w.fuseCnt[n] == 0 {
			continue
		}
		lvl.en = lvl.en[:0]
		ok := true
		for i := 0; i < len(rules); i++ {
			rn := rules[i].Cache
			if rules[i].Kind == engine.RuleDeliver {
				rn = rules[i].Del.Msg.Dst
			}
			if rn != n {
				continue
			}
			if !testCorruptFusion && !red.fusibleRule(sys, rules[i]) {
				ok = false
				break
			}
			lvl.en = append(lvl.en, i)
		}
		if !ok || !red.nodeFree(sys, n) {
			continue
		}
		lvl.node = n
		return lvl.en
	}
	return nil
}

// collapse recursively normalizes sys — applying every rule of the
// lowest fusible node, branching where that set has several rules — and
// appends the resulting normal-form successors to w.succs; w.chain holds the
// edge from stored state parent to sys. seedQ accumulates "a quiescent
// state was fused through on this path", which finishSucc hands to merge
// as the parent's liveness witness. sys is consumed: the last branch
// applies in place, the others run on the level's own scratch, and
// whoever owns sys reverts it afterwards.
func (w *worker) collapse(sys *engine.System, parent int32, depth int, seedQ bool) {
	en := w.fusible(sys, depth)
	if len(en) == 0 || depth >= maxFuseDepth {
		w.succs = append(w.succs, w.finishSucc(sys, seedQ))
		return
	}
	// sys is about to be collapsed through, not stored; if it is
	// quiescent, record the witness before it disappears.
	if w.c.cfg.CheckLiveness && !seedQ {
		seedQ = quiescent(sys)
	}
	w.stateFused = true
	if w.c.cfg.CommuteAudit {
		w.auditCollapse(sys, parent, depth, &w.lvls[depth])
	}
	// The recursion below may grow w.lvls; hold this level's slices, not
	// a pointer into the array.
	rules := w.lvls[depth].rules
	for bi, ri := range en {
		r := rules[ri]
		child := sys
		if bi < len(en)-1 {
			child = w.branch(sys, depth, bi == 0)
		}
		w.chain = append(w.chain, uint32(ri))
		performs, err := child.Apply(r)
		if err != nil {
			// Contradicts invisibility (a static-analysis bug); surface it
			// as the error verdict it would have been uncollapsed.
			w.succErr(err)
			w.chain = w.chain[:len(w.chain)-1]
			continue
		}
		for _, pf := range performs {
			if pf.Access == ir.AccessLoad && !pf.Exempt && w.c.coherent && pf.Value != child.LastWrite {
				w.pendViol = append(w.pendViol,
					fmt.Sprintf("cache %d load returned %d, last write is %d", pf.Node, pf.Value, child.LastWrite)) // vethotpath:ignore — cold: violation path
			}
		}
		w.fused++
		w.collapse(child, parent, depth+1, seedQ)
		w.chain = w.chain[:len(w.chain)-1]
	}
}

// branch returns level depth's scratch System holding a copy of sys, for
// a branch that cannot apply in place. The level's first branch copies
// sys whole (the scratch last served some other state); later ones only
// revert what the previous branch — and every collapse level below it,
// which applied in place on this scratch — touched, sys itself staying
// unchanged until the last branch.
func (w *worker) branch(sys *engine.System, depth int, first bool) *engine.System {
	lvl := &w.lvls[depth]
	switch {
	case lvl.scr == nil:
		lvl.scr = sys.Clone()
	case first:
		sys.CloneInto(lvl.scr)
	default:
		lvl.scr.RevertTo(sys)
	}
	return lvl.scr
}

// finishSucc canonicalizes one normal form and resolves it against the
// visited store — the shared tail of successor generation — and an
// unseen one against the states this worker already found unseen in the
// level. Only the first occurrence of an unseen state is checked and
// snapshotted into the worker's slab, while it is still live on the
// scratch System; a repeat names the first. Pending data-value
// violations (from the root apply or fused performs) attach to the
// first normal form emitted after they were observed.
func (w *worker) finishSucc(succ *engine.System, seedQ bool) succOut {
	so := succOut{knownIdx: -1, seedParent: seedQ}
	if len(w.pendViol) > 0 {
		so.cold = &succCold{dataViol: w.pendViol}
		w.pendViol = nil
	}
	key := w.enc.Canonical(succ, w.c.perms)
	so.hash = engine.Fingerprint(key)
	idx, ok := w.c.visited.Lookup(so.hash, key)
	if !ok {
		if k := w.firstUnseen(so.hash, key); k >= 0 {
			idx, ok = -2-k, true
		}
	}
	if ok {
		so.knownIdx = idx
		// The edge is only needed for violation traces and new states; a
		// clean successor of a known state skips it.
		if so.cold != nil {
			so.edgeLo, so.edgeHi = w.edge()
		}
		return so
	}
	so.edgeLo, so.edgeHi = w.edge()
	if !w.c.cfg.Fingerprint {
		// Skipping this copy is fingerprint mode's frontier memory win.
		so.keyLo = uint32(len(w.keys))
		w.keys = append(w.keys, key...)
		so.keyHi = uint32(len(w.keys))
	}
	so.snapLo = uint32(len(w.slab))
	w.slab = succ.AppendSnapshot(w.slab)
	so.snapHi = uint32(len(w.slab))
	w.snaps++
	if found := w.checkState(succ); found != nil {
		if so.cold == nil {
			so.cold = &succCold{}
		}
		so.cold.stateViol = found
	}
	if w.c.cfg.CheckLiveness {
		so.quiet = quiescent(succ)
	}
	return so
}

// auditErr is one commutation-audit discrepancy, resolved into a
// "por-audit" violation on the merge goroutine (drainAudit).
type auditErr struct {
	parent int32
	detail string
}

// maxAuditPairs caps the commutation pairs audited per collapse point.
const maxAuditPairs = 8

// auditCollapse validates one collapse point dynamically. Every fused
// rule must keep the checked valuation monotone (the dynamic face of
// static fusibility), and sampled (fused, deferred) rule pairs are
// executed in both orders and must agree — on reachability of the
// second rule, on error outcome, and on the final canonical state (the
// dynamic face of independence). Sampling is deterministic (seeded by
// the stored parent's state index and the collapse depth), so audit
// results are parallelism-independent.
func (w *worker) auditCollapse(sys *engine.System, parent int32, depth int, lvl *fuseLevel) {
	for _, ri := range lvl.en {
		t := lvl.rules[ri]
		w.auditPairs++
		s := sys.CloneInto(w.aud)
		if _, err := s.Apply(t); err != nil {
			continue // surfaces as an error leaf; not a commutation fact
		}
		if why := w.monotoneViolation(sys, s, lvl.node); why != "" {
			w.auditMism++
			w.auditErrs = append(w.auditErrs, auditErr{
				parent: parent,
				detail: fmt.Sprintf("fused rule %q is not valuation-monotone: %s", t.String(), why), // vethotpath:ignore — cold: audit violation path
			})
		}
	}
	w.outIdx = w.outIdx[:0]
	j := 0
	for i := 0; i < len(lvl.rules); i++ {
		if j < len(lvl.en) && lvl.en[j] == i {
			j++
			continue
		}
		w.outIdx = append(w.outIdx, i)
	}
	total := len(lvl.en) * len(w.outIdx)
	if total == 0 {
		return
	}
	count, stride := total, 1
	if total > maxAuditPairs {
		count = maxAuditPairs
		stride = total / maxAuditPairs
	}
	offset := int(splitmix64(uint64(uint32(parent))^uint64(depth)<<40) % uint64(total))
	for k := 0; k < count; k++ {
		p := (offset + k*stride) % total
		t := lvl.rules[lvl.en[p/len(w.outIdx)]]
		o := lvl.rules[w.outIdx[p%len(w.outIdx)]]
		w.auditPairs++
		r1 := w.applyPair(sys, t, o)
		r2 := w.applyPair(sys, o, t)
		if r1 != r2 || r1 == auditDisabled || r2 == auditDisabled {
			w.auditMism++
			w.auditErrs = append(w.auditErrs, auditErr{
				parent: parent,
				detail: fmt.Sprintf("rules %q and %q do not commute: [%s;%s] -> %s, [%s;%s] -> %s", // vethotpath:ignore — cold: audit violation path
					t.String(), o.String(), t.String(), o.String(), r1, o.String(), t.String(), r2),
			})
		}
	}
}

// monotoneViolation compares the checked valuation before and after one
// fused rule at cache node n and reports the first way it fails to be
// monotone: the last-write register changed, another cache's component
// changed at all, n lost a permission classification, or n's checked
// data was overwritten. An empty string means the step was monotone —
// every check the pruned interleavings would have run is subsumed by a
// stored state that checks at least as much. (Hit-capability
// monotonicity is covered statically: depend rejects any class that
// could lose or guard-flip it.)
func (w *worker) monotoneViolation(pre, post *engine.System, n int) string {
	if post.LastWrite != pre.LastWrite {
		return fmt.Sprintf("last-write register changed %d -> %d", pre.LastWrite, post.LastWrite) // vethotpath:ignore — cold: audit violation path
	}
	for j := range pre.Caches {
		if j == n {
			continue
		}
		if pre.Caches[j].StIdx != post.Caches[j].StIdx || pre.Caches[j].Data() != post.Caches[j].Data() {
			return fmt.Sprintf("cache %d changed by a rule at cache %d", j, n) // vethotpath:ignore — cold: audit violation path
		}
	}
	p, q := pre.Caches[n], post.Caches[n]
	rdPre := p.StIdx >= 0 && w.c.readerAt[p.StIdx]
	wrPre := p.StIdx >= 0 && w.c.writerAt[p.StIdx]
	rdPost := q.StIdx >= 0 && w.c.readerAt[q.StIdx]
	wrPost := q.StIdx >= 0 && w.c.writerAt[q.StIdx]
	if (rdPre && !rdPost) || (wrPre && !wrPost) {
		return fmt.Sprintf("cache %d lost its permission classification (%s -> %s)", n, p.State, q.State) // vethotpath:ignore — cold: audit violation path
	}
	if (rdPre || wrPre) && p.Data() != q.Data() {
		return fmt.Sprintf("cache %d overwrote checked data %d -> %d", n, p.Data(), q.Data()) // vethotpath:ignore — cold: audit violation path
	}
	return ""
}

// auditDisabled marks a pair order whose second rule was no longer
// enabled — always a discrepancy (independent rules must not disable
// each other).
const auditDisabled = "second rule disabled"

// applyPair runs a then b on the audit scratch's copy of parent and
// summarizes the outcome: the final canonical state, an error
// (position-independent, so symmetric errors compare equal), or
// auditDisabled. b is relocated by content after a executes, because
// unordered-bag positions shift.
func (w *worker) applyPair(parent *engine.System, a, b engine.Rule) string {
	s := parent.CloneInto(w.aud)
	if _, err := s.Apply(a); err != nil {
		return "error: " + err.Error()
	}
	b2, found := w.findRule(s, b)
	if !found {
		return auditDisabled
	}
	if _, err := s.Apply(b2); err != nil {
		return "error: " + err.Error()
	}
	return "state " + string(w.enc.Canonical(s, w.c.perms))
}

// findRule locates r in s by content: accesses by (cache, access type),
// deliveries by message value — their queue positions may have shifted.
func (w *worker) findRule(s *engine.System, r engine.Rule) (engine.Rule, bool) {
	w.auditRules = s.AppendRules(w.auditRules[:0])
	for _, cand := range w.auditRules {
		if cand.Kind != r.Kind {
			continue
		}
		if r.Kind == engine.RuleAccess {
			if cand.Cache == r.Cache && cand.Access == r.Access {
				return cand, true
			}
		} else if cand.Del.Msg == r.Del.Msg {
			return cand, true
		}
	}
	return engine.Rule{}, false
}

// drainAudit moves the workers' commutation discrepancies into
// violations, in deterministic order, up to MaxViolations. Runs on
// the merge goroutine between expand and merge.
func (c *checker) drainAudit() {
	n := 0
	for _, w := range c.pool {
		n += len(w.auditErrs)
	}
	if n == 0 {
		return
	}
	all := make([]auditErr, 0, n)
	for _, w := range c.pool {
		all = append(all, w.auditErrs...)
		w.auditErrs = w.auditErrs[:0]
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].parent != all[j].parent {
			return all[i].parent < all[j].parent
		}
		return all[i].detail < all[j].detail
	})
	for _, ae := range all {
		c.violate("por-audit", ae.detail, int(ae.parent), nil)
	}
}

// splitmix64 is the audit sampler's seed mixer (same finalizer as
// engine.Fingerprint's).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
