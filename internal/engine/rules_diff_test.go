package engine_test

// Differential pinning of the enabledness tables: AppendRules decides
// most (state, event) pairs from Layout tables built once and evaluates a
// guard only where one decides. At every step of random walks over the
// registry and the fuzzer's spec space it must list exactly the rules
// AppendRulesByMatch lists by asking the transition matcher about every
// (cache, access) pair and every deliverable message — same rules, same
// order, so rule ordinals and the traces replayed from them are unchanged.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// walkRules drives one random schedule from sys, comparing the two
// enumerations at every step; visit, when non-nil, sees each state's
// rules first.
func walkRules(t *testing.T, label string, sys *engine.System, seed int64, steps int, visit func(*engine.System, []engine.Rule)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var got, want []engine.Rule
	for i := 0; i < steps; i++ {
		got = sys.AppendRules(got[:0])
		want = sys.AppendRulesByMatch(want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("%s seed=%d step %d: table enumeration diverges from matching\ntables:   %v\nmatching: %v",
				label, seed, i, got, want)
		}
		if visit != nil {
			visit(sys, got)
		}
		if len(got) == 0 {
			return
		}
		if _, err := sys.Apply(got[rng.Intn(len(got))]); err != nil {
			return // apply errors (defect shapes) end the walk; rules matched up to here
		}
	}
}

// TestRulesDiffRegistry sweeps every registry protocol in every
// generation mode at 2 and 3 caches.
func TestRulesDiffRegistry(t *testing.T) {
	eachRegistryProtocol(t, func(label string, p *ir.Protocol) {
		for _, caches := range []int{2, 3} {
			for seed := int64(0); seed < 6; seed++ {
				sys := engine.NewSystem(p, engine.Config{Caches: caches, Capacity: 6, Values: 2})
				walkRules(t, fmt.Sprintf("%s caches=%d", label, caches), sys, seed, 80, nil)
			}
		}
	})
}

// TestRulesDiffFuzzSpecs runs the differential walk over the fuzzer's
// seed-indexed spec space.
func TestRulesDiffFuzzSpecs(t *testing.T) {
	eachFuzzProtocol(t, func(label string, p *ir.Protocol, simSeed int64) {
		sys := engine.NewSystem(p, engine.Config{Caches: 3, Capacity: 6, Values: 2})
		walkRules(t, label, sys, simSeed, 60, nil)
	})
}

// TestRulesDiffHandBuilt covers what no generated protocol reaches: 0 of
// the millions of access checks a 3-cache registry check makes meet a
// guard. MSI's cache machine is given a guarded access, an ambiguous
// unguarded access pair and an ambiguous unguarded delivery pair, and
// the network a message no transition handles.
func TestRulesDiffHandBuilt(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A shared copy may be dropped silently when it holds value 1: an
	// access a guard decides.
	p.Cache.AddTransition(ir.Transition{From: "S", Ev: ir.AccessEvent(ir.AccessAcq),
		Guard: ir.Binop(ir.OpEq, ir.Var("block"), ir.Const(1)), Next: "I"})
	// Two unguarded stores at I: matching reports them ambiguous, so the
	// store is disabled there.
	p.Cache.AddTransition(ir.Transition{From: "I", Ev: ir.AccessEvent(ir.AccessStore), Next: "S"})
	// Two unguarded stalls on Fwd_GetS at I: ambiguous, not a stall, so
	// the delivery stays enabled and Apply reports it.
	for range 2 {
		p.Cache.AddTransition(ir.Transition{From: "I", Ev: ir.MsgEvent("Fwd_GetS"), Next: "I", Stall: true})
	}
	class := func(typ string) int {
		for _, d := range p.Msgs {
			if string(d.Type) == typ {
				return int(d.Class)
			}
		}
		t.Fatalf("no message %s", typ)
		return 0
	}

	const caches = 3
	fresh := func() *engine.System {
		sys := engine.NewSystem(p, engine.Config{Caches: caches, Capacity: 6, Values: 2})
		// Hand-built (unstamped) messages: a Put_Ack cache 0 has no
		// transition for in I, and a Fwd_GetS cache 1 has two for.
		for _, m := range []engine.Msg{
			{Type: "Put_Ack", Src: caches, Dst: 0, Req: engine.NoID, Class: class("Put_Ack")},
			{Type: "Fwd_GetS", Src: caches, Dst: 1, Req: 2, Class: class("Fwd_GetS")},
		} {
			if err := sys.Net.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}

	init := fresh().Rules()
	has := func(rules []engine.Rule, match func(engine.Rule) bool) bool {
		return slices.ContainsFunc(rules, match)
	}
	for c := 0; c < caches; c++ {
		if has(init, func(r engine.Rule) bool {
			return r.Kind == engine.RuleAccess && r.Cache == c && r.Access == ir.AccessStore
		}) {
			t.Errorf("cache %d: a store with two unguarded transitions at I is enabled", c)
		}
	}
	for _, typ := range []string{"Put_Ack", "Fwd_GetS"} {
		if !has(init, func(r engine.Rule) bool { return r.Kind == engine.RuleDeliver && r.Del.Msg.Type == typ }) {
			t.Errorf("the %s delivery Apply must report is not enabled", typ)
		}
	}

	// Walk on from the initial state without the two messages, so the
	// caches reach S and the guard is read both ways.
	var guardTrue, guardFalse int
	count := func(sys *engine.System, rules []engine.Rule) {
		for i, c := range sys.Caches {
			if c.State != "S" {
				continue
			}
			if has(rules, func(r engine.Rule) bool {
				return r.Kind == engine.RuleAccess && r.Cache == i && r.Access == ir.AccessAcq
			}) {
				guardTrue++
			} else {
				guardFalse++
			}
		}
	}
	walkRules(t, "hand-built", fresh(), 1, 40, nil)
	for seed := int64(0); seed < 40; seed++ {
		sys := engine.NewSystem(p, engine.Config{Caches: caches, Capacity: 6, Values: 2})
		walkRules(t, "hand-built", sys, seed, 80, count)
	}
	if guardTrue == 0 || guardFalse == 0 {
		t.Errorf("the guarded access was enabled %d times and disabled %d times; the walks must see both", guardTrue, guardFalse)
	}
}
