package engine_test

// Differential pinning of the signature-sort canonicalization: for every
// registry protocol, every generation mode, and a sweep of fuzz-generated
// specs, random walks must produce canonical keys byte-identical to the
// brute-force all-permutations oracle (Encoder.CanonicalBrute). This is
// the test that licenses the factorial-free fast path: any divergence —
// a wrong purity judgment, a bad tie-group enumeration, a sort that
// disagrees with lexicographic encoding order — shows up as a key diff
// long before it would corrupt golden exploration numbers.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
	"protogen/internal/fuzz"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// walkDiff drives one random schedule, comparing fast and brute canonical
// keys at every step. Separate encoders: the two paths share scratch
// buffers, so one encoder cannot hold both keys at once.
func walkDiff(t *testing.T, label string, p *ir.Protocol, caches int, seed int64, steps int) (stats engine.CanonStats) {
	t.Helper()
	cfg := engine.Config{Caches: caches, Capacity: 6, Values: 2}
	sys := engine.NewSystem(p, cfg)
	perms := engine.Permutations(caches)
	fast := engine.NewEncoder(p)
	brute := engine.NewEncoder(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		fk := fast.Canonical(sys, perms)
		bk := brute.CanonicalBrute(sys, perms)
		if !bytes.Equal(fk, bk) {
			t.Fatalf("%s caches=%d seed=%d step %d: signature-sort key diverges from brute force\nfast:  %x\nbrute: %x",
				label, caches, seed, i, fk, bk)
		}
		rules := sys.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			break // apply errors (defect shapes) end the walk; keys matched up to here
		}
	}
	return fast.Stats()
}

// eachRegistryProtocol generates every registry protocol in all three
// generation modes and hands each to fn — the input set this test and the
// snapshot/revert property test (snapshot_test.go) share.
func eachRegistryProtocol(t *testing.T, fn func(label string, p *ir.Protocol)) {
	t.Helper()
	for _, e := range protocols.All {
		spec, err := dsl.Parse(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, mode := range core.Modes {
			opts, err := core.OptionsForMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Generate(spec, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name, mode, err)
			}
			fn(e.Name+"/"+mode, p)
		}
	}
}

// eachFuzzProtocol does the same over the fuzzer's seed-indexed spec space
// — the generator the campaign uses, so properties are pinned on machine
// shapes nobody hand-picked. fn also gets the seed's simulator seed.
func eachFuzzProtocol(t *testing.T, fn func(label string, p *ir.Protocol, simSeed int64)) {
	t.Helper()
	pool := append(fuzz.Shapes(), fuzz.BoundaryShapes()...)
	for seed := uint64(0); seed < 24; seed++ {
		params, limit, simSeed := fuzz.SpecForSeed(seed, pool)
		spec, err := dsl.Parse(params.Source())
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, params.Name(), err)
		}
		for _, mode := range []core.Options{core.StallingOpts(), core.NonStallingOpts(), core.DeferredOpts()} {
			opts := mode
			opts.PendingLimit = limit
			p, err := core.Generate(spec, opts)
			if err != nil {
				continue // generator boundary shapes may reject a mode; covered elsewhere
			}
			fn(fmt.Sprintf("fuzz seed %d (%s)", seed, params.Name()), p, simSeed)
		}
	}
}

// TestCanonicalDiffRegistry sweeps every registry protocol in all three
// generation modes at 2 and 3 caches.
func TestCanonicalDiffRegistry(t *testing.T) {
	var total engine.CanonStats
	eachRegistryProtocol(t, func(label string, p *ir.Protocol) {
		for _, caches := range []int{2, 3} {
			for seed := int64(0); seed < 6; seed++ {
				total.Add(walkDiff(t, label, p, caches, seed, 60))
			}
		}
	})
	// The sweep must exercise every strategy, or the differential check
	// proves less than it claims (deferred mode drives the impure-state
	// fallback, near-initial states drive ties).
	if total.Fast == 0 || total.TieStates == 0 || total.Fallbacks == 0 {
		t.Errorf("sweep did not cover all canonicalization strategies: %+v", total)
	}
}

// TestCanonicalDiffFuzzSpecs runs the differential walk over the fuzzer's
// seed-indexed spec space.
func TestCanonicalDiffFuzzSpecs(t *testing.T) {
	eachFuzzProtocol(t, func(label string, p *ir.Protocol, simSeed int64) {
		walkDiff(t, label, p, 3, simSeed, 40)
	})
}

// TestCanonicalHonorsPermSubset: a permutation list that is a proper
// subset of the symmetric group defines a coarser equivalence; Canonical
// must minimize over exactly that subset (via the brute path), never
// over permutations the caller excluded.
func TestCanonicalHonorsPermSubset(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	full := engine.Permutations(3)
	subset := [][]int{full[0], full[1]} // identity + one swap, not a full group cover
	sys := engine.NewSystem(p, engine.Config{Caches: 3, Capacity: 6, Values: 2})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		fk := string(engine.NewEncoder(p).Canonical(sys, subset))
		bk := string(engine.NewEncoder(p).CanonicalBrute(sys, subset))
		if fk != bk {
			t.Fatalf("step %d: Canonical over a perm subset diverges from brute force on that subset", i)
		}
		rules := sys.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCanonicalAgreesAcrossEncoders: the same state canonicalized by two
// fresh encoders (as checker workers do) yields identical bytes, and
// repeated calls on one encoder are stable.
func TestCanonicalAgreesAcrossEncoders(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys := engine.NewSystem(p, engine.Config{Caches: 3, Capacity: 6, Values: 2})
	rng := rand.New(rand.NewSource(11))
	perms := engine.Permutations(3)
	for i := 0; i < 25; i++ {
		rules := sys.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			t.Fatal(err)
		}
		a := string(engine.NewEncoder(p).Canonical(sys, perms))
		e := engine.NewEncoder(p)
		b := string(e.Canonical(sys, perms))
		c := string(e.Canonical(sys, perms))
		if a != b || b != c {
			t.Fatalf("step %d: canonical key unstable across encoders/calls", i)
		}
	}
}
