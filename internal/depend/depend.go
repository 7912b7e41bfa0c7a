package depend

import (
	"fmt"
	"sort"

	"protogen/internal/ir"
)

// Analysis is the complete static dependence analysis of one generated
// protocol. The verify package consumes the visibility tables and id-var
// lists to build reduced successor sets; the analyze package and
// protogen lint surface the class records and stats as PG3xx
// diagnostics.
type Analysis struct {
	P *ir.Protocol

	// Unsafe lists protocol-level pessimizations: facts that defeat the
	// id-freeness induction for the whole protocol (non-id expressions
	// flowing into id sinks). A non-empty list disables reduction
	// entirely — the conservative default.
	Unsafe []string

	// Id-tainted integer variable names per machine: slots that may
	// hold a node identity and therefore participate in the reducer's
	// runtime id-freeness scan.
	CacheIDVars []string
	DirIDVars   []string

	// CacheAccessVis[stateIdx][accessType] classifies the access class
	// at that cache state; CacheMsgVis[stateIdx][msgIdx] the delivery
	// class. State indices follow Machine.Order (the same order
	// engine.Layout uses); msg indices follow Protocol.Msgs. A missing
	// handler is visible ("unexpected-message"): executing it errors.
	CacheAccessVis [][]Visibility
	CacheMsgVis    [][]Visibility
	DirMsgVis      [][]Visibility

	// CacheMsgStall[stateIdx][msgIdx]: delivering that message at that
	// cache state always stalls (a stall-only class: the engine treats
	// the delivery as disabled). The reducer uses this to prove that a
	// message another node may send to a cache cannot race the cache's
	// own rules: a guaranteed-stalling arrival just waits.
	CacheMsgStall [][]bool

	// CacheAccessFuse / CacheMsgFuse: the class is collapse-fusible — a
	// strictly weaker requirement than invisibility. A fusible rule may
	// change its cache's checked classification as long as the change is
	// MONOTONE (reader/writer/hit-capability bits only gained, checked
	// data never overwritten, the last-write register never touched, and
	// performed loads land in checked states so the state-based
	// data-value invariant subsumes the skipped perform check). Pruning
	// interleavings around such a rule can then only defer checks to
	// stored states that check strictly more, never lose a verdict. A
	// missing handler is fusible: executing it errors, and the collapse
	// surfaces that error leaf exactly like the full exploration would.
	CacheAccessFuse [][]bool
	CacheMsgFuse    [][]bool

	// OwnerSends[msgIdx] / SharerSends[msgIdx]: some class (either
	// machine, deferred replays included) sends that message type via an
	// owner-variable / sharer-set destination — the only two ways a
	// stored reference to a node turns into a message to it. Sends
	// addressed through the triggering message (src/req/deferred) are
	// excluded: those are covered by the reducer's scan of in-flight and
	// deferred messages naming the node.
	OwnerSends  []bool
	SharerSends []bool

	// Classes lists every executable rule class for the lint surface,
	// cache machine first, in (state, event) order.
	Classes []Class

	Stats Stats
}

// Stats summarizes the analysis for PG302 and protogen lint -dep-stats.
type Stats struct {
	Classes      int `json:"classes"`       // executable rule classes, both machines
	CacheClasses int `json:"cache_classes"` // executable cache-machine classes
	Invisible    int `json:"invisible"`     // fully invisible cache classes
	Visible      int `json:"visible"`       // pessimized cache classes
	Fusible      int `json:"fusible"`       // collapse-fusible cache classes (superset of invisible)
	IDVars       int `json:"id_vars"`       // id-tainted integer variables
	UnsafeFacts  int `json:"unsafe_facts"`  // protocol-level pessimizations
	// IndependentPairFrac is the fraction of unordered cache-class
	// pairs (distinct executing nodes assumed) proven independent:
	// both classes invisible and the protocol id-safe.
	IndependentPairFrac float64 `json:"independent_pair_frac"`
	// Reasons histograms the pessimization reasons over cache classes.
	Reasons map[string]int `json:"reasons,omitempty"`
}

const numAccessTypes = int(ir.AccessAcq) + 1

// New runs the analysis. The protocol must have passed ir validation;
// the analysis itself never fails — anything it cannot prove is reported
// as a pessimization, not an error.
func New(p *ir.Protocol) *Analysis {
	a := &Analysis{P: p}
	msgIdx := make(map[ir.MsgType]int, len(p.Msgs))
	for i := range p.Msgs {
		msgIdx[p.Msgs[i].Type] = i
	}

	cacheTaint, cacheUnsafe := taintIDVars(p.Cache)
	dirTaint, dirUnsafe := taintIDVars(p.Dir)
	a.Unsafe = append(a.Unsafe, cacheUnsafe...)
	a.Unsafe = append(a.Unsafe, dirUnsafe...)
	a.CacheIDVars = sortedKeys(cacheTaint)
	a.DirIDVars = sortedKeys(dirTaint)

	cls := newClassifier(p)
	a.CacheAccessVis, a.CacheMsgVis, a.CacheMsgStall, a.CacheAccessFuse, a.CacheMsgFuse =
		cls.machineTables(p.Cache, cacheTaint, msgIdx, true)
	_, a.DirMsgVis, _, _, _ = cls.machineTables(p.Dir, dirTaint, msgIdx, false)
	a.Classes = cls.classes
	a.OwnerSends, a.SharerSends = refSends(p, msgIdx)

	a.Stats.Reasons = map[string]int{}
	for _, c := range a.Classes {
		if c.StallOnly {
			continue
		}
		a.Stats.Classes++
		if c.Kind == ir.KindCache {
			a.Stats.CacheClasses++
			if c.Vis.Visible {
				a.Stats.Visible++
				a.Stats.Reasons[c.Vis.Reason]++
			} else {
				a.Stats.Invisible++
			}
			if c.Fusible {
				a.Stats.Fusible++
			}
		}
	}
	a.Stats.IDVars = len(a.CacheIDVars) + len(a.DirIDVars)
	a.Stats.UnsafeFacts = len(a.Unsafe)
	if k := a.Stats.CacheClasses; k > 0 {
		total := k * (k + 1) / 2
		inv := a.Stats.Invisible
		indep := inv * (inv + 1) / 2
		if len(a.Unsafe) > 0 {
			indep = 0
		}
		a.Stats.IndependentPairFrac = float64(indep) / float64(total)
	}
	return a
}

// Safe reports whether the reducer may use the analysis at all.
func (a *Analysis) Safe() bool { return len(a.Unsafe) == 0 }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// classifier holds the protocol-wide classification facts shared by
// both machines' visibility tables.
type classifier struct {
	p *ir.Protocol
	// Per cache-machine state (Machine.Order index): the invariant
	// inputs the checker derives from the FSM. readerAt/writerAt mirror
	// verify.classifyPermissions; hitCap mirrors engine.AppendHitLoads'
	// static over-approximation; guardedHit marks states whose hit-load
	// capability depends on a guard (and can thus flip on a var write).
	readerAt, writerAt []bool
	hitCap, guardedHit []bool
	// pendLoad/pendStore over-approximate which access type may be
	// outstanding (issued, not yet performed) when the cache machine sits
	// in that state — a fixpoint over the transition graph. A delivery
	// class that performs at a pendStore state completes a store: it
	// writes the global last-write register and is never fusible.
	pendLoad, pendStore []bool
	stateIdx            map[ir.StateName]int
	classes             []Class
}

func newClassifier(p *ir.Protocol) *classifier {
	c := &classifier{p: p, stateIdx: map[ir.StateName]int{}}
	order := p.Cache.Order
	c.readerAt = make([]bool, len(order))
	c.writerAt = make([]bool, len(order))
	c.hitCap = make([]bool, len(order))
	c.guardedHit = make([]bool, len(order))
	for i, n := range order {
		c.stateIdx[n] = i
		stable := false
		if st := p.Cache.State(n); st != nil && st.Kind == ir.Stable {
			stable = true
		}
		for _, acc := range []ir.AccessType{ir.AccessLoad, ir.AccessStore} {
			for _, t := range p.Cache.Find(n, ir.AccessEvent(acc)) {
				hit := false
				for _, act := range t.Actions {
					if act.Op == ir.AHit {
						hit = true
					}
				}
				if !hit {
					continue
				}
				if stable {
					if acc == ir.AccessLoad {
						c.readerAt[i] = true
					} else {
						c.writerAt[i] = true
					}
				}
				if acc == ir.AccessLoad && t.Next == t.From && !t.Stall {
					c.hitCap[i] = true
					if t.Guard != nil {
						c.guardedHit[i] = true
					}
				}
			}
		}
	}
	c.pendingAccesses(p.Cache)
	return c
}

// pendingAccesses computes pendLoad/pendStore: per cache state, which
// access types may be outstanding there. Seeds are access transitions
// that do not perform (misses/issues: the access stays pending in the
// engine); pending propagates along every non-stall transition that
// does not itself perform. Classes that flush deferred messages count
// as performing only if no deferred action performs — otherwise the
// perform is conditional, so pending conservatively survives.
func (c *classifier) pendingAccesses(m *ir.Machine) {
	n := len(m.Order)
	c.pendLoad = make([]bool, n)
	c.pendStore = make([]bool, n)
	performs := func(t ir.Transition) bool {
		for _, a := range t.Actions {
			if a.Op == ir.AHit || a.Op == ir.APerform {
				return true
			}
			if a.Op == ir.AFlush {
				// The replayed deferred actions may perform, but need not;
				// treat the pending access as possibly surviving.
				return false
			}
		}
		return false
	}
	pend := func(s ir.StateName) (int, bool) {
		i, ok := c.stateIdx[s]
		return i, ok
	}
	for changed := true; changed; {
		changed = false
		set := func(i int, load bool) {
			tgt := c.pendStore
			if load {
				tgt = c.pendLoad
			}
			if !tgt[i] {
				tgt[i] = true
				changed = true
			}
		}
		for _, t := range m.Trans {
			if t.Stall {
				continue
			}
			ni, ok := pend(t.Next)
			if !ok {
				continue
			}
			if t.Ev.Kind == ir.EvAccess && !performs(t) &&
				(t.Ev.Access == ir.AccessLoad || t.Ev.Access == ir.AccessStore) {
				set(ni, t.Ev.Access == ir.AccessLoad)
			}
			fi, ok := pend(t.From)
			if !ok || performs(t) {
				continue
			}
			if c.pendLoad[fi] {
				set(ni, true)
			}
			if c.pendStore[fi] {
				set(ni, false)
			}
		}
	}
}

// permClass returns the (reader, writer, hit-capable) triple of a cache
// state; unknown states (never the case after validation) classify as
// fully private.
func (c *classifier) permClass(n ir.StateName) (r, w, h bool) {
	i, ok := c.stateIdx[n]
	if !ok {
		return false, false, false
	}
	return c.readerAt[i], c.writerAt[i], c.hitCap[i]
}

func (c *classifier) dataLive(n ir.StateName) bool {
	r, w, h := c.permClass(n)
	return r || w || h
}

// machineTables builds the visibility tables for one machine and
// appends its class records. isCache selects the cache-machine rules:
// only cache classes can ever enter an ample set, so only they get the
// fine-grained invisibility analysis; directory classes are pessimized
// wholesale ("directory-class") — the directory serializes the
// protocol, and deferring its rules is never attempted.
func (c *classifier) machineTables(m *ir.Machine, tainted map[string]bool, msgIdx map[ir.MsgType]int, isCache bool) (accessVis, msgVis [][]Visibility, msgStall, accessFuse, msgFuse [][]bool) {
	nStates := len(m.Order)
	nMsgs := len(c.p.Msgs)
	if isCache {
		accessVis = make([][]Visibility, nStates)
		accessFuse = make([][]bool, nStates)
		msgFuse = make([][]bool, nStates)
	}
	msgVis = make([][]Visibility, nStates)
	msgStall = make([][]bool, nStates)
	for si := range m.Order {
		if isCache {
			accessVis[si] = make([]Visibility, numAccessTypes)
			for ai := range accessVis[si] {
				// No handler: the access is simply not enabled — such a
				// rule is never enumerated, so the entry is unused; keep
				// it pessimized in case a future engine change enumerates
				// it anyway.
				accessVis[si][ai] = Visibility{Visible: true, Reason: "no-handler"}
			}
			accessFuse[si] = make([]bool, numAccessTypes)
			msgFuse[si] = make([]bool, nMsgs)
			for mi := range msgFuse[si] {
				// A message with no matching transition errors when
				// executed; collapsing it surfaces the same error leaf the
				// full exploration would, so the class is fusible.
				msgFuse[si][mi] = true
			}
		}
		msgVis[si] = make([]Visibility, nMsgs)
		msgStall[si] = make([]bool, nMsgs)
		for mi := range msgVis[si] {
			// A message with no matching transition is deliverable and
			// errors on execution (ErrUnexpected): that is a verdict, so
			// the class is visible.
			msgVis[si][mi] = Visibility{Visible: true, Reason: "unexpected-message"}
		}
	}

	for si, sn := range m.Order {
		for _, ev := range m.Events() {
			ts := m.Find(sn, ev)
			if len(ts) == 0 {
				continue
			}
			vis, stallOnly, foot := c.classifyClass(m, sn, ev, ts, tainted, msgIdx, isCache)
			fusible := isCache && !stallOnly && c.classFusible(ev, ts, &foot)
			c.classes = append(c.classes, Class{
				Kind: m.Kind, State: sn, Ev: ev, Foot: foot, Vis: vis, Fusible: fusible, StallOnly: stallOnly,
			})
			if ev.Kind != ir.EvAccess {
				if mi, ok := msgIdx[ev.Msg]; ok {
					if stallOnly {
						msgStall[si][mi] = true
						if isCache {
							msgFuse[si][mi] = false // disabled, never enumerated
						}
					} else {
						msgVis[si][mi] = vis
						if isCache {
							msgFuse[si][mi] = fusible
						}
					}
				}
				continue
			}
			if stallOnly {
				continue
			}
			if isCache {
				accessVis[si][int(ev.Access)] = vis
				accessFuse[si][int(ev.Access)] = fusible
			}
		}
	}
	return accessVis, msgVis, msgStall, accessFuse, msgFuse
}

// classFusible decides collapse-fusibility of a cache class: every
// non-stalling alternative must keep the checked valuation MONOTONE.
// Reader/writer/hit-capability bits may only be gained; data the
// checker currently compares against the last-write register is never
// overwritten; the last-write register itself is never written (no
// store completions: any perform at a possibly-pending-store state is
// rejected); and a performed load must land in a checked state, so the
// state-based data-value invariant at the stored normal form subsumes
// the perform check that fused interleavings would have run earlier.
// Classes that may error remain fusible — collapsing them yields the
// same error verdict as executing them from a stored state.
func (c *classifier) classFusible(ev ir.Event, ts []ir.Transition, foot *Footprint) bool {
	for _, t := range ts {
		if t.Stall {
			continue
		}
		r1, w1, h1 := c.permClass(t.From)
		r2, w2, h2 := c.permClass(t.Next)
		if (r1 && !r2) || (w1 && !w2) || (h1 && !h2) {
			return false
		}
		if foot.WritesData && c.dataLive(t.From) {
			return false
		}
		i1, ok1 := c.stateIdx[t.From]
		i2, ok2 := c.stateIdx[t.Next]
		if (ok1 && c.guardedHit[i1]) || (ok2 && c.guardedHit[i2]) {
			return false
		}
		if foot.Performs {
			if ev.Kind == ir.EvAccess {
				// Only an immediately-performed load can be monotone; any
				// other access write goes through the last-write register.
				if ev.Access != ir.AccessLoad {
					return false
				}
			} else if !ok1 || c.pendStore[i1] {
				return false
			}
			if !c.dataLive(t.Next) {
				return false
			}
		}
	}
	return true
}

// refSends scans every send in the protocol — both machines' transitions
// and their deferred-replay tables — for the two destination kinds that
// resolve a STORED node reference: an owner variable or a sharer set.
// Message types sent that way are the only ones a controller can aim at
// node n without a triggering message that names n.
func refSends(p *ir.Protocol, msgIdx map[ir.MsgType]int) (owner, sharer []bool) {
	owner = make([]bool, len(p.Msgs))
	sharer = make([]bool, len(p.Msgs))
	scan := func(acts []ir.Action) {
		for _, a := range acts {
			if a.Op != ir.ASend {
				continue
			}
			mi, ok := msgIdx[ir.MsgType(a.Msg)]
			if !ok {
				continue
			}
			switch a.Dst {
			case ir.DstOwner:
				owner[mi] = true
			case ir.DstSharers:
				sharer[mi] = true
			}
		}
	}
	for _, m := range []*ir.Machine{p.Cache, p.Dir} {
		for ti := range m.Trans {
			scan(m.Trans[ti].Actions)
		}
		for _, acts := range m.DeferredActions {
			scan(acts)
		}
	}
	return owner, sharer
}

// classifyClass computes the footprint and visibility of one rule class.
func (c *classifier) classifyClass(m *ir.Machine, sn ir.StateName, ev ir.Event, ts []ir.Transition, tainted map[string]bool, msgIdx map[ir.MsgType]int, isCache bool) (Visibility, bool, Footprint) {
	foot := Footprint{Sends: make([]bool, len(c.p.Msgs))}
	vis := func(reason string) (Visibility, bool, Footprint) {
		return Visibility{Visible: true, Reason: reason}, false, foot
	}

	nonStall := 0
	for _, t := range ts {
		if !t.Stall {
			nonStall++
		}
	}
	if nonStall == 0 {
		return Visibility{}, true, foot
	}
	if !isCache {
		c.collectFootprint(&foot, m, ts, msgIdx)
		return Visibility{Visible: true, Reason: "directory-class"}, false, foot
	}

	isAccess := ev.Kind == ir.EvAccess

	// The footprint must be complete BEFORE any visibility early-return:
	// classFusible consults it (Performs, WritesData) even for classes
	// pessimized to visible here, and an empty footprint would let a
	// store-completing delivery mislabel as fusible.
	c.collectFootprint(&foot, m, ts, msgIdx)

	// Ambiguity: matchEv errors when two transitions' guards both hold
	// (stalling alternatives included). Prove every pair disjoint or
	// pessimize — an ambiguity error is a verdict.
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			if !guardsDisjoint(ts[i].Guard, ts[j].Guard) {
				return vis("maybe-ambiguous-guards")
			}
		}
	}
	for _, t := range ts {
		if guardMayError(t.Guard, isAccess) {
			return vis("guard-may-error")
		}
	}

	if foot.MayErr {
		return vis("may-error")
	}
	if foot.Performs {
		return vis("performs-access")
	}

	for _, t := range ts {
		if t.Stall {
			continue
		}
		r1, w1, h1 := c.permClass(t.From)
		r2, w2, h2 := c.permClass(t.Next)
		if r1 != r2 || w1 != w2 {
			return vis("classification-change")
		}
		if h1 != h2 {
			return vis("hit-load-set-change")
		}
		if foot.WritesData && (c.dataLive(t.From) || c.dataLive(t.Next)) {
			return vis("writes-live-data")
		}
		i1, ok1 := c.stateIdx[t.From]
		i2, ok2 := c.stateIdx[t.Next]
		if (ok1 && c.guardedHit[i1]) || (ok2 && c.guardedHit[i2]) {
			// Hit capability at either endpoint depends on a guard over
			// variables this class may write: the hit-load set could
			// flip without a state change.
			return vis("guarded-hit")
		}
	}
	return Visibility{}, false, foot
}

// collectFootprint unions the footprints of every non-stalling
// alternative of a class, following AFlush into the owning machine's
// deferred-action table (flush replays deferred messages through those
// actions).
func (c *classifier) collectFootprint(foot *Footprint, m *ir.Machine, ts []ir.Transition, msgIdx map[ir.MsgType]int) {
	for _, t := range ts {
		if t.Stall {
			continue
		}
		c.collectActions(foot, t.Actions, t.Ev.Kind == ir.EvAccess, msgIdx)
		if hasFlush(t.Actions) {
			for _, acts := range sortedDeferred(m.DeferredActions) {
				c.collectActions(foot, acts, false, msgIdx)
			}
		}
	}
}

func hasFlush(acts []ir.Action) bool {
	for _, a := range acts {
		if a.Op == ir.AFlush {
			return true
		}
	}
	return false
}

// sortedDeferred renders the deferred-action table in deterministic
// order (cold path; map iteration order must not leak into diagnostics).
func sortedDeferred(m map[ir.MsgType][]ir.Action) [][]ir.Action {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := make([][]ir.Action, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[ir.MsgType(k)])
	}
	return out
}

func (c *classifier) collectActions(foot *Footprint, acts []ir.Action, isAccess bool, msgIdx map[ir.MsgType]int) {
	for _, a := range acts {
		switch a.Op {
		case ir.ASend:
			mi, ok := msgIdx[ir.MsgType(a.Msg)]
			if !ok {
				foot.MayErr = true
				continue
			}
			foot.Sends[mi] = true
			switch a.Dst {
			case ir.DstDir:
				foot.SendsToDir = true
			case ir.DstOwner:
				foot.SendsToCache = true
				// resolveDst errors when owner is unset; cannot be
				// excluded statically.
				foot.MayErr = true
			case ir.DstMsgSrc, ir.DstMsgReq, ir.DstDeferred:
				foot.SendsToDir = true
				foot.SendsToCache = true
				if isAccess {
					foot.MayErr = true // msg.src/req outside a message event
				}
			case ir.DstSharers:
				foot.SendsToDir = true
				foot.SendsToCache = true
			}
			if isAccess && (exprReadsField(a.Payload.Acks) || exprReadsField(a.Payload.Req)) {
				foot.MayErr = true
			}
		case ir.AHit, ir.APerform:
			foot.Performs = true
		case ir.ACopyData, ir.AWriteback:
			foot.WritesData = true
		case ir.ADefer:
			foot.Defers = true
		case ir.ASet, ir.ASetAdd, ir.ASetDel:
			if isAccess && exprReadsField(a.Expr) {
				foot.MayErr = true
			}
		}
	}
}

// exprReadsField reports whether e references a trigger-message field
// (which errors when evaluated in an access context).
func exprReadsField(e *ir.Expr) bool {
	if e == nil {
		return false
	}
	return e.Kind == ir.EField || exprReadsField(e.L) || exprReadsField(e.R)
}

// String renders a class for diagnostics: "cache S on Load" /
// "directory DirS on GetM".
func (c Class) String() string {
	kind := "cache"
	if c.Kind == ir.KindDirectory {
		kind = "directory"
	}
	return fmt.Sprintf("%s %s on %s", kind, c.State, c.Ev)
}
