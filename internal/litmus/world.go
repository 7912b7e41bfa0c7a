package litmus

import (
	"fmt"
	"strings"

	"protogen/internal/engine"
	"protogen/internal/ir"
)

// This file holds the single-step execution semantics shared by the
// exhaustive explorer and the randomized sampler: a world is one
// configuration of the composed multi-address system, choices
// enumerates its enabled scheduler decisions, and apply executes one.
// Sharing the step code is what makes the sampled-⊆-exhaustive
// contract structural: the sampler draws uniformly from exactly the
// transition relation the explorer enumerates.

// threadState tracks one litmus thread's progress.
type threadState struct {
	pc       int
	inflight int // address of the in-flight transaction (-1 idle)
}

// world is one configuration of the composed system: per-address
// protocol instances, per-thread program counters, and the partial
// outcome accumulated so far (register values in Test.Registers()
// order, -1 unset).
type world struct {
	systems []*engine.System
	ts      []threadState
	regs    []int
}

// runner holds the per-exploration immutable context: the protocol,
// the test, the register index, and reusable scratch.
type runner struct {
	p      *ir.Protocol
	test   *Test
	caches int
	regIdx map[string]int // qualified register -> regs slot
	enc    *engine.Encoder
	keyBuf []byte
	chBuf  []choice
	delBuf []engine.Deliverable
}

// choice is one scheduler decision: a thread issuing its next op
// (thread >= 0) or a message delivery on one address (thread == -1).
type choice struct {
	thread int
	addr   int
	del    engine.Deliverable
}

const capacity = 8 // every channel's bound in a litmus system

func newRunner(p *ir.Protocol, t *Test, caches int) *runner {
	if caches < len(t.Threads) {
		caches = len(t.Threads)
	}
	r := &runner{p: p, test: t, caches: caches,
		regIdx: map[string]int{}, enc: engine.NewEncoder(p)}
	for i, reg := range t.Registers() {
		r.regIdx[reg] = i
	}
	return r
}

// newWorld builds the warmed initial configuration.
func (r *runner) newWorld() (*world, error) {
	w := &world{
		systems: make([]*engine.System, r.test.Addrs),
		ts:      make([]threadState, len(r.test.Threads)),
		regs:    make([]int, len(r.regIdx)),
	}
	for a := range w.systems {
		w.systems[a] = engine.NewSystem(r.p, engine.Config{
			Caches: r.caches, Capacity: capacity, Values: 1 << 30,
		})
	}
	for i := range w.ts {
		w.ts[i].inflight = -1
	}
	for i := range w.regs {
		w.regs[i] = -1
	}
	for cache, addrs := range r.test.Warm {
		for _, a := range addrs {
			if err := w.systems[a].Warm(cache); err != nil {
				return nil, fmt.Errorf("%s: warm cache %d addr %d: %w", r.test.Name, cache, a, err)
			}
		}
	}
	return w, nil
}

// clone deep-copies a world.
func (w *world) clone() *world {
	n := &world{
		systems: make([]*engine.System, len(w.systems)),
		ts:      append([]threadState(nil), w.ts...),
		regs:    append([]int(nil), w.regs...),
	}
	for i, s := range w.systems {
		n.systems[i] = s.Clone()
	}
	return n
}

// done reports whether every thread retired its full program.
func (r *runner) done(w *world) bool {
	for t := range w.ts {
		if w.ts[t].inflight >= 0 || w.ts[t].pc < len(r.test.Threads[t]) {
			return false
		}
	}
	return true
}

// quiet reports whether every address's network is drained.
func quiet(w *world) bool {
	for _, s := range w.systems {
		if s.Net.InFlight() > 0 {
			return false
		}
	}
	return true
}

// choices appends every enabled scheduler decision to buf: each idle
// thread whose next op can make progress right now, and each message
// whose target would accept it. Ops that cannot issue yet (a stalled
// transition) are NOT enumerated — they become enabled in successor
// configurations once deliveries unblock them.
func (r *runner) choices(w *world, buf []choice) []choice {
	for t := range w.ts {
		if w.ts[t].inflight >= 0 || w.ts[t].pc >= len(r.test.Threads[t]) {
			continue
		}
		if r.issuable(w, t) {
			buf = append(buf, choice{thread: t})
		}
	}
	for a, sys := range w.systems {
		r.delBuf = sys.Net.AppendDeliverables(r.delBuf[:0])
		for _, d := range r.delBuf {
			if sys.Accepts(d) {
				buf = append(buf, choice{thread: -1, addr: a, del: d})
			}
		}
	}
	return buf
}

// issuable reports whether thread t's next op can make progress now.
func (r *runner) issuable(w *world, t int) bool {
	op := r.test.Threads[t][w.ts[t].pc]
	switch op.Kind {
	case OAcquire:
		return true // applies wherever enabled, no-op elsewhere
	case OLoad, OStore:
		acc := ir.AccessLoad
		if op.Kind == OStore {
			acc = ir.AccessStore
		}
		sys := w.systems[op.Addr]
		trs := sys.P.Cache.Find(sys.Caches[t].State, ir.AccessEvent(acc))
		return len(trs) == 1 && !trs[0].Stall
	}
	return false
}

// apply executes one choice, mutating w: record completed loads and
// stores into the outcome, then run the completion scan that retires
// transactions whose cache returned to a stable state.
func (r *runner) apply(w *world, ch choice) error {
	if ch.thread < 0 {
		sys := w.systems[ch.addr]
		performs, err := sys.Apply(engine.Rule{Kind: engine.RuleDeliver, Del: ch.del})
		if err != nil {
			return err
		}
		r.attribute(w, ch.addr, performs)
		r.completeScan(w)
		return nil
	}
	t := ch.thread
	op := r.test.Threads[t][w.ts[t].pc]
	switch op.Kind {
	case OAcquire:
		for _, sys := range w.systems {
			trs := sys.P.Cache.Find(sys.Caches[t].State, ir.AccessEvent(ir.AccessAcq))
			if len(trs) == 1 && !trs[0].Stall {
				if _, err := sys.Apply(engine.Rule{Kind: engine.RuleAccess, Cache: t, Access: ir.AccessAcq}); err != nil {
					return err
				}
			}
		}
		w.ts[t].pc++
	case OLoad, OStore:
		acc := ir.AccessLoad
		if op.Kind == OStore {
			acc = ir.AccessStore
		}
		sys := w.systems[op.Addr]
		if hit, val := sys.TryHit(t, acc); hit {
			r.record(w, t, op, val)
			w.ts[t].pc++
			break
		}
		if _, err := sys.Apply(engine.Rule{Kind: engine.RuleAccess, Cache: t, Access: acc}); err != nil {
			return err
		}
		w.ts[t].inflight = op.Addr
	}
	r.completeScan(w)
	return nil
}

// attribute records the performs of a delivery on addr against the
// threads whose in-flight transaction they complete.
func (r *runner) attribute(w *world, addr int, performs []engine.Perform) {
	for _, pf := range performs {
		t := pf.Node
		if t >= len(w.ts) || w.ts[t].inflight != addr || w.ts[t].pc >= len(r.test.Threads[t]) {
			continue
		}
		op := r.test.Threads[t][w.ts[t].pc]
		if (op.Kind == OLoad && pf.Access == ir.AccessLoad) ||
			(op.Kind == OStore && pf.Access == ir.AccessStore) {
			r.record(w, t, op, pf.Value)
		}
	}
}

// record stores an observed value into the outcome slot of op's
// register, if it has one.
func (r *runner) record(w *world, t int, op Op, val int) {
	if op.Reg == "" {
		return
	}
	w.regs[r.regIdx[regName(t, op.Reg)]] = val
}

// completeScan retires transactions whose cache is back in a stable
// state: the thread becomes runnable at its next op.
func (r *runner) completeScan(w *world) {
	for t := range w.ts {
		if w.ts[t].inflight < 0 {
			continue
		}
		sys := w.systems[w.ts[t].inflight]
		st := sys.P.Cache.State(sys.Caches[t].State)
		if st != nil && st.Kind == ir.Stable {
			w.ts[t].inflight = -1
			w.ts[t].pc++
		}
	}
}

// outcome converts the register slots into an Outcome. Unset registers
// (-1) are omitted; on a terminal world every register is set.
func (r *runner) outcome(w *world) Outcome {
	o := Outcome{}
	for reg, i := range r.regIdx {
		if w.regs[i] >= 0 {
			o[reg] = w.regs[i]
		}
	}
	return o
}

// encode renders the composed configuration as one injective key:
// per-address system encodings (length-prefixed), thread progress, and
// the partial outcome (loads observed so far distinguish otherwise
// identical machine states). The returned slice aliases runner scratch.
func (r *runner) encode(w *world) []byte {
	buf := r.keyBuf[:0]
	for _, sys := range w.systems {
		k := r.enc.Key(sys)
		buf = append(buf, byte(len(k)>>8), byte(len(k)))
		buf = append(buf, k...)
	}
	for _, t := range w.ts {
		buf = append(buf, byte(t.pc), byte(t.inflight+1))
	}
	for _, v := range w.regs {
		buf = append(buf, byte(v>>8), byte(v+1))
	}
	r.keyBuf = buf
	return buf
}

// stuckError describes a configuration with no enabled choice that is
// not a completed quiescent run, naming the blocked threads.
func (r *runner) stuckError(w *world) error {
	var blocked []string
	for t := range w.ts {
		ts := w.ts[t]
		switch {
		case ts.inflight >= 0:
			sys := w.systems[ts.inflight]
			blocked = append(blocked, fmt.Sprintf(
				"t%d in-flight on addr %d (cache state %s)", t, ts.inflight, sys.Caches[t].State))
		case ts.pc < len(r.test.Threads[t]):
			op := r.test.Threads[t][ts.pc]
			sys := w.systems[op.Addr]
			blocked = append(blocked, fmt.Sprintf(
				"t%d cannot issue op %d (addr %d, cache state %s)", t, ts.pc, op.Addr, sys.Caches[t].State))
		}
	}
	inflight := 0
	for _, s := range w.systems {
		inflight += s.Net.InFlight()
	}
	return fmt.Errorf("litmus %s stuck: no enabled choice, %d messages in flight all stalled; blocked: %s",
		r.test.Name, inflight, strings.Join(blocked, "; "))
}
