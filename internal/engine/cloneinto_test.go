package engine

import (
	"math/rand"
	"testing"
)

// TestCloneIntoNoAliasing: a System recycled through CloneInto must share
// no mutable memory with its source — the invariant the checker's
// scratch Systems rest on. The test drives source and copy down different
// schedules after the copy and checks neither perturbs the other's key.
func TestCloneIntoNoAliasing(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		src := randomSystem(t, 3, seed)
		// A recycled target with its own history: backing arrays carry
		// stale content (including defer queues and network traffic).
		recycled := randomSystem(t, 3, seed+100).Clone()
		dst := src.CloneInto(recycled)
		if dst != recycled {
			t.Fatal("CloneInto must return its target")
		}
		srcKey, dstKey := string(NewEncoder(src.P).Key(src)), string(NewEncoder(dst.P).Key(dst))
		if srcKey != dstKey {
			t.Fatalf("seed %d: CloneInto result differs from source", seed)
		}
		// Mutate the source; the copy must not move.
		rng := rand.New(rand.NewSource(seed + 7))
		for i := 0; i < 12; i++ {
			rules := src.Rules()
			if len(rules) == 0 {
				break
			}
			if _, err := src.Apply(rules[rng.Intn(len(rules))]); err != nil {
				t.Fatal(err)
			}
		}
		if string(NewEncoder(dst.P).Key(dst)) != dstKey {
			t.Fatalf("seed %d: mutating the source changed the recycled copy", seed)
		}
		// And the other direction.
		frozen := string(NewEncoder(src.P).Key(src))
		for i := 0; i < 12; i++ {
			rules := dst.Rules()
			if len(rules) == 0 {
				break
			}
			if _, err := dst.Apply(rules[rng.Intn(len(rules))]); err != nil {
				t.Fatal(err)
			}
		}
		if string(NewEncoder(src.P).Key(src)) != frozen {
			t.Fatalf("seed %d: mutating the recycled copy changed the source", seed)
		}
	}
}

// TestCloneIntoNil: a nil target falls back to a fresh Clone.
func TestCloneIntoNil(t *testing.T) {
	src := randomSystem(t, 2, 3)
	dst := src.CloneInto(nil)
	if dst == nil || dst == src {
		t.Fatal("CloneInto(nil) must return a fresh clone")
	}
	if string(NewEncoder(dst.P).Key(dst)) != string(NewEncoder(src.P).Key(src)) {
		t.Fatal("CloneInto(nil) result differs from source")
	}
}

// TestCloneIntoRepeatedRecycling: the same target recycled through many
// different sources always equals its latest source — segment-capped
// backing arrays must not leak content across reuses.
func TestCloneIntoRecycling(t *testing.T) {
	target := randomSystem(t, 3, 1).Clone()
	for seed := int64(20); seed < 30; seed++ {
		src := randomSystem(t, 3, seed)
		target = src.CloneInto(target)
		if string(NewEncoder(target.P).Key(target)) != string(NewEncoder(src.P).Key(src)) {
			t.Fatalf("seed %d: recycled target diverges from source", seed)
		}
	}
}
