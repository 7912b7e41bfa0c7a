package core

import (
	"fmt"
	"sort"

	"protogen/internal/ir"
)

// expandCache performs Steps 1 and 2 (paper §V-B, §V-C): stable states,
// one transient state per await position, and the transitions of the
// concurrency-free protocol.
func (g *gen) expandCache() error {
	for _, d := range g.spec.Cache.Stable {
		if err := g.cache.AddState(&ir.State{Name: d.Name, Kind: ir.Stable}); err != nil {
			return err
		}
	}
	g.cache.Init = g.spec.Cache.Init
	g.cache.Vars = append([]ir.VarDecl(nil), g.spec.Cache.Vars...)

	for _, t := range g.spec.Cache.Txns {
		if t.Trigger.Kind == ir.EvAccess {
			g.usedAcc[t.Trigger.Access] = true
		}
		switch {
		case t.Hit:
			g.cache.AddTransition(ir.Transition{
				From: t.Start, Ev: t.Trigger,
				Actions: append(ir.CloneActions(t.InitActions), ir.Action{Op: ir.AHit}),
				Next:    t.Final,
			})
		case t.Await == nil:
			// Immediate transition: a forwarded-request handler or a
			// silent access transaction.
			acts := ir.CloneActions(t.InitActions)
			if t.Trigger.Kind == ir.EvAccess {
				acts = append(acts, ir.Action{Op: ir.APerform})
			}
			g.cache.AddTransition(ir.Transition{
				From: t.Start, Ev: t.Trigger, Actions: acts, Next: t.Final,
			})
		default:
			first, err := g.addPositions(g.cache, t)
			if err != nil {
				return err
			}
			g.cache.AddTransition(ir.Transition{
				From: t.Start, Ev: t.Trigger,
				Actions: ir.CloneActions(t.InitActions),
				Next:    first.name,
			})
		}
	}
	return nil
}

// processQueue drains the Step-3 worklist: for every transient state it
// builds the own-transaction transitions and accommodates every forwarded
// request that can arrive there (paper §V-D).
func (g *gen) processQueue() error {
	fwdNames := make([]ir.MsgType, 0, len(g.fwds))
	for f := range g.fwds {
		fwdNames = append(fwdNames, f)
	}
	sort.Slice(fwdNames, func(i, j int) bool { return fwdNames[i] < fwdNames[j] })

	for len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		if err := g.buildOwnTransitions(w); err != nil {
			return err
		}
		for _, f := range fwdNames {
			if err := g.handleFwd(w, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildOwnTransitions mirrors the position's await cases onto the state,
// applying the derived-state adjustments: off-route breaks are pruned,
// breaks land on the logical chain end, the pending access is performed at
// completion and deferred obligations are flushed.
func (g *gen) buildOwnTransitions(w workItem) error {
	routeCls := ir.StateName("")
	if w.route != "" {
		routeCls = g.cls[w.route]
	}
	for _, c := range w.pos.await.Cases {
		switch c.Kind {
		case ir.CaseBreak:
			if routeCls != "" && g.cls[c.Final] != routeCls {
				continue // the absorbed forwarded request proved this route impossible
			}
			acts := ir.CloneActions(c.Actions)
			if w.pos.txn.Trigger.Kind == ir.EvAccess && w.pos.txn.Trigger.Access != ir.AccessNone && !w.pos.stale {
				acts = append(acts, ir.Action{Op: ir.APerform})
			}
			next := c.Final
			if len(w.chain) > 0 {
				next = w.chain[len(w.chain)-1]
			}
			if len(w.defers) > 0 {
				acts = append(acts, ir.Action{Op: ir.AFlush})
			}
			g.cache.AddTransition(ir.Transition{
				From: w.name, Ev: ir.MsgEvent(c.Msg),
				Guard: c.Guard.Clone(), GuardLabel: c.GuardLabel, ColLabel: c.WhenLabel,
				Actions: acts, Next: next,
			})
		case ir.CaseAwait:
			if routeCls != "" && !subtreeHasClass(g, c.Sub, routeCls) {
				continue
			}
			sub := g.positions[c.Sub.ID]
			if sub == nil {
				return fmt.Errorf("internal: unknown sub-position %s", c.Sub.ID)
			}
			next, err := g.ensureState(sub, w.route, w.chain, w.defers)
			if err != nil {
				return err
			}
			g.cache.AddTransition(ir.Transition{
				From: w.name, Ev: ir.MsgEvent(c.Msg),
				Guard: c.Guard.Clone(), GuardLabel: c.GuardLabel, ColLabel: c.WhenLabel,
				Actions: ir.CloneActions(c.Actions), Next: next,
			})
		case ir.CaseLoop:
			g.cache.AddTransition(ir.Transition{
				From: w.name, Ev: ir.MsgEvent(c.Msg),
				Guard: c.Guard.Clone(), GuardLabel: c.GuardLabel, ColLabel: c.WhenLabel,
				Actions: ir.CloneActions(c.Actions), Next: w.name,
			})
		}
	}
	return nil
}

func subtreeHasClass(g *gen, a *ir.Await, cls ir.StateName) bool {
	for _, f := range collectFinals(a) {
		if g.cls[f] == cls {
			return true
		}
	}
	return false
}

// ensureState returns the state for (position, route, chain, defers),
// creating and enqueueing it on first use.
func (g *gen) ensureState(p *position, route ir.StateName, chain []ir.StateName, defers []ir.MsgType) (ir.StateName, error) {
	key := makeKey(p, route, chain, defers)
	if n, ok := g.byKey[key]; ok {
		return n, nil
	}
	st := g.newStateFor(p, route, chain, defers)
	st.Name = uniqueName(g.cache, st.Name)
	if err := g.cache.AddState(st); err != nil {
		return "", err
	}
	g.byKey[key] = st.Name
	g.queue = append(g.queue, workItem{
		name: st.Name, pos: p, route: route,
		chain:  append([]ir.StateName(nil), chain...),
		defers: append([]ir.MsgType(nil), defers...),
	})
	return st.Name, nil
}

// handleFwd decides how forwarded request f is handled in state w:
// impossible (skip), Case 1 (other transaction ordered earlier) or Case 2
// (other transaction ordered later).
func (g *gen) handleFwd(w workItem, f ir.MsgType) error {
	fi := g.fwds[f]
	origin := w.pos.txn.Start

	if len(w.chain) > 0 || w.pos.stale {
		end := w.chainEnd()
		if end == "" {
			end = origin // stale position: logical state is the restart state
		}
		if g.cls[end] != fi.home {
			return nil
		}
		return g.case2(w, f, end)
	}

	finalCls := g.finalClasses(w.pos)
	atOrigin := fi.home == g.cls[origin]
	atFinal := contains(finalCls, fi.home)
	switch {
	case w.pos.root && atOrigin && atFinal:
		return fmt.Errorf("forwarded request %s is ambiguous in state %s: it can arrive both at origin class %s and at a target class; preprocessing should have renamed it", f, w.name, fi.home)
	case w.pos.root && atOrigin:
		return g.case1(w, f)
	case atOrigin:
		// Handled by lateFwdPass: an origin-class forward ordered before
		// the own request can overtake it on the forward network only if
		// its handler keeps the origin state (otherwise the response we
		// already hold would contradict the directory's view).
		return nil
	case atFinal:
		for _, fin := range w.pos.finals {
			if g.cls[fin] == fi.home {
				return g.case2(w, f, fin)
			}
		}
	}
	return nil
}

// case1 implements §V-D1: the other transaction was ordered earlier at the
// directory. The cache responds immediately (mandatory for deadlock
// freedom) and logically restarts its own transaction from the handler's
// target state — without rescinding the in-flight request.
func (g *gen) case1(w workItem, f ir.MsgType) error {
	origin := w.pos.txn.Start
	handler := g.fwds[f].handlers[origin]
	if handler == nil {
		return fmt.Errorf("case 1: no handler for %s at %s", f, origin)
	}
	if handler.Await != nil {
		return fmt.Errorf("case 1: handler (%s, %s) must be immediate", origin, f)
	}
	if w.pos.txn.Trigger.Kind != ir.EvAccess {
		return fmt.Errorf("case 1: transaction %s is not access-triggered; cannot restart", w.pos.txn.ID)
	}
	respond := ir.CloneActions(handler.InitActions)
	sl := handler.Final
	access := w.pos.txn.Trigger.Access
	ownReq := w.pos.txn.Request

	txn2 := g.spec.Cache.FindTxn(sl, ir.AccessEvent(access))
	// Follow silent restart transactions: if the access completes with no
	// message at the restart state (TSO-CC's untracked S -> I eviction),
	// the logical state advances and the access is re-dispatched there.
	for hops := 0; txn2 != nil && !txn2.Hit && txn2.Request == "" && txn2.Await == nil; hops++ {
		if hops > len(g.spec.Cache.Stable) {
			return fmt.Errorf("case 1: silent transition cycle restarting %s from %s", access, sl)
		}
		sl = txn2.Final
		txn2 = g.spec.Cache.FindTxn(sl, ir.AccessEvent(access))
	}
	var next ir.StateName
	switch {
	case txn2 == nil:
		// The access vanishes at the restart state (replacement of an
		// already-invalid block): the in-flight request is stale; wait for
		// its terminal acknowledgment in a synthesized completion state.
		if ownReq == "" || !g.isPut(ownReq) {
			return fmt.Errorf("case 1: access %s impossible at %s and request %s is not a Put; cannot recover", access, sl, ownReq)
		}
		n, err := g.staleRootState(sl, w.pos.txn)
		if err != nil {
			return err
		}
		next = n
	case txn2.Hit || txn2.Await == nil:
		return fmt.Errorf("case 1: access %s completes locally at %s while request %s is in flight; unsupported SSP shape", access, sl, ownReq)
	default:
		pos2 := g.rootPos[txn2.ID]
		if pos2 == nil {
			return fmt.Errorf("internal: no root position for %s", txn2.ID)
		}
		switch {
		case txn2.Request == ownReq:
			// Same request from the restart state: plain jump (SM_AD + Inv
			// -> IM_AD).
		case g.isPut(ownReq) && g.isPut(txn2.Request):
			// Both Puts await the same terminal Put-Ack, which the
			// directory's stale-Put rule guarantees (MI_A + Fwd-GetS ->
			// SI_A with the stale PutM acknowledged).
			ack := g.putAck[ownReq]
			if !awaitsMsg(txn2.Await, ack) {
				return fmt.Errorf("case 1: %s does not await %s, the stale acknowledgment of %s", txn2.ID, ack, ownReq)
			}
		case !g.isPut(ownReq) && !g.isPut(txn2.Request):
			// Upgrade-style: the directory will reinterpret the in-flight
			// request as the access-equivalent one (§V-D1).
			if prev, ok := g.reinterp[ownReq]; ok && prev != txn2.Request {
				return fmt.Errorf("case 1: conflicting reinterpretations of %s (%s vs %s)", ownReq, prev, txn2.Request)
			}
			g.reinterp[ownReq] = txn2.Request
		default:
			return fmt.Errorf("case 1: cannot reconcile in-flight %s with restart request %s", ownReq, txn2.Request)
		}
		next = pos2.name
	}
	g.cache.AddTransition(ir.Transition{
		From: w.name, Ev: ir.MsgEvent(f), Actions: respond, Next: next,
	})
	return nil
}

// case2 implements §V-D2: the other transaction was ordered after ours.
// Stalling mode blocks the event; non-stalling mode absorbs it into a
// derived transient state, deferring responses that need data we do not
// hold yet (immediate-response policy) or all responses (deferred policy).
func (g *gen) case2(w workItem, f ir.MsgType, tf ir.StateName) error {
	if !g.opts.NonStalling || len(w.chain)+1 > g.opts.PendingLimit {
		g.cache.AddTransition(ir.Transition{
			From: w.name, Ev: ir.MsgEvent(f), Next: w.name, Stall: true,
		})
		return nil
	}
	handler := g.fwds[f].handlers[tf]
	if handler == nil {
		return fmt.Errorf("case 2: no handler for %s at %s", f, tf)
	}
	if handler.Await != nil {
		return fmt.Errorf("case 2: handler (%s, %s) must be immediate", tf, f)
	}
	arrival, deferred := g.splitHandler(handler)
	newDefers := append([]ir.MsgType(nil), w.defers...)
	if len(deferred) > 0 {
		if prev, ok := g.cache.DeferredActions[f]; ok {
			if !ir.ActionsEqual(prev, deferred) {
				return fmt.Errorf("case 2: %s needs two different deferred action lists", f)
			}
		} else {
			g.cache.DeferredActions[f] = deferred
		}
		arrival = append(arrival, ir.Action{Op: ir.ADefer, Msg: f})
		newDefers = append(newDefers, f)
	}
	route := w.route
	if route == "" {
		route = tf
	}
	next, err := g.ensureState(w.pos, route,
		append(append([]ir.StateName(nil), w.chain...), handler.Final),
		newDefers)
	if err != nil {
		return err
	}
	g.cache.AddTransition(ir.Transition{
		From: w.name, Ev: ir.MsgEvent(f), Actions: arrival, Next: next,
	})
	return nil
}

// splitHandler divides a forwarded-request handler's actions into those
// performed at arrival and those deferred until the own transaction
// completes. Data-carrying responses are always deferred (the data does
// not exist yet); data-free responses are sent at arrival under the
// immediate-response policy and deferred otherwise. Deferred sends to the
// requestor are retargeted to the recorded deferred requestor.
func (g *gen) splitHandler(h *ir.Transaction) (arrival, deferred []ir.Action) {
	for _, a := range ir.CloneActions(h.InitActions) {
		if a.Op != ir.ASend {
			arrival = append(arrival, a)
			continue
		}
		if g.opts.ImmediateResponses && !a.Payload.WithData {
			arrival = append(arrival, a)
			continue
		}
		if a.Dst == ir.DstMsgSrc || a.Dst == ir.DstMsgReq {
			a.Dst = ir.DstDeferred
		}
		deferred = append(deferred, a)
	}
	return arrival, deferred
}

// staleRootState returns (creating on first use) the stale-completion
// state for a transaction whose access vanished at restart state sl: it
// mirrors the transaction's root await with every break retargeted to sl
// and no access performed (the primer's II^A).
func (g *gen) staleRootState(sl ir.StateName, own *ir.Transaction) (ir.StateName, error) {
	msgs := awaitMsgs(own.Await)
	key := string(sl) + "|" + fmt.Sprint(msgs)
	if n, ok := g.staleRoots[key]; ok {
		return n, nil
	}
	g.staleSeq++
	synth := &ir.Transaction{
		ID:      fmt.Sprintf("stale%d:%s", g.staleSeq, sl),
		Start:   sl,
		Trigger: ir.AccessEvent(ir.AccessNone),
		Await:   retarget(own.Await, sl, fmt.Sprintf("stale%d", g.staleSeq)),
	}
	// Mark every position of the synthetic transaction as stale.
	first, err := g.addPositions(g.cache, synth)
	if err != nil {
		return "", err
	}
	synth.Await.EachAwait(func(a *ir.Await) {
		g.positions[a.ID].stale = true
	})
	// The state record was created before the stale flag was set; fix it.
	g.cache.State(first.name).Stale = true
	g.staleRoots[key] = first.name
	return first.name, nil
}

// retarget deep-copies an await tree, pointing every break at sl and
// assigning fresh position ids under prefix.
func retarget(a *ir.Await, sl ir.StateName, prefix string) *ir.Await {
	if a == nil {
		return nil
	}
	out := &ir.Await{ID: prefix + "/" + a.ID}
	for _, c := range a.Cases {
		cc := &ir.Case{
			Msg: c.Msg, Guard: c.Guard.Clone(), GuardLabel: c.GuardLabel,
			WhenLabel: c.WhenLabel, Actions: ir.CloneActions(c.Actions), Kind: c.Kind,
		}
		switch c.Kind {
		case ir.CaseBreak:
			cc.Final = sl
		case ir.CaseAwait:
			cc.Sub = retarget(c.Sub, sl, prefix)
		}
		out.Cases = append(out.Cases, cc)
	}
	return out
}

// awaitsMsg reports whether the root await has a case for m.
func awaitsMsg(a *ir.Await, m ir.MsgType) bool {
	if a == nil {
		return false
	}
	for _, c := range a.Cases {
		if c.Msg == m {
			return true
		}
	}
	return false
}

// awaitMsgs returns the sorted direct-case messages of an await.
func awaitMsgs(a *ir.Await) []string {
	set := map[string]bool{}
	for _, c := range a.Cases {
		set[string(c.Msg)] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func (g *gen) isPut(m ir.MsgType) bool {
	d, ok := g.spec.MsgDecl(m)
	return ok && d.Put
}

// staleFwdPass adds acknowledge-and-stay handling for data-free forwarded
// requests (invalidations) in every state that has no transition for them:
// a stale invalidation reaches a cache whose sharer-list entry is dangling
// because the directory does not prune sharers on stale Puts; the
// requestor is counting acknowledgments, so the cache must still respond.
func (g *gen) staleFwdPass() {
	fwdNames := make([]ir.MsgType, 0, len(g.fwds))
	for f := range g.fwds {
		fwdNames = append(fwdNames, f)
	}
	sort.Slice(fwdNames, func(i, j int) bool { return fwdNames[i] < fwdNames[j] })

	for _, f := range fwdNames {
		fi := g.fwds[f]
		acks, ok := dataFreeResponse(fi)
		if !ok {
			continue
		}
		for _, n := range append([]ir.StateName(nil), g.cache.Order...) {
			if len(g.cache.Find(n, ir.MsgEvent(f))) > 0 {
				continue
			}
			g.cache.AddTransition(ir.Transition{
				From: n, Ev: ir.MsgEvent(f),
				Actions: ir.CloneActions(acks), Next: n,
				Stale: true, Note: "stale " + string(f),
			})
		}
	}
}

// dataFreeResponse returns the common data-free response actions of a
// forwarded request, or ok=false if any handler responds with data (those
// can never be answered from a state that lacks the data).
func dataFreeResponse(fi *fwdInfo) ([]ir.Action, bool) {
	var common []ir.Action
	first := true
	for _, h := range fi.handlers {
		if h.Await != nil {
			return nil, false
		}
		var sends []ir.Action
		for _, a := range h.InitActions {
			if a.Op != ir.ASend {
				continue
			}
			if a.Payload.WithData {
				return nil, false
			}
			sends = append(sends, a)
		}
		if len(sends) == 0 {
			return nil, false
		}
		if first {
			common = sends
			first = false
		} else if !ir.ActionsEqual(common, sends) {
			return nil, false
		}
	}
	if first {
		return nil, false
	}
	return common, true
}
