package engine

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestNeverRevertedSystemDoesNotGrow: a simulator or litmus System applies
// rules for ever and never reverts, so what RevertTo needs recorded must
// cost it an OR and a store a step and no memory. The controller set is
// one word and the network's mark one flag by type; 100k applies later the
// set names nothing outside the topology and the System is the size it was
// built.
func TestNeverRevertedSystemDoesNotGrow(t *testing.T) {
	s := randomSystem(t, 3, 1)
	rng := rand.New(rand.NewSource(9))
	var rules []Rule
	for i := 0; i < 100_000; i++ {
		rules = s.AppendRules(rules[:0])
		if len(rules) == 0 {
			t.Fatalf("step %d: walk ran out of rules", i)
		}
		if _, err := s.Apply(rules[rng.Intn(len(rules))]); err != nil {
			t.Fatal(err)
		}
	}
	if s.touchedCtrl == 0 || s.touchedCtrl>>uint(s.DirID()+1) != 0 {
		t.Fatalf("controller set %b names nodes outside 0..%d (or none)", s.touchedCtrl, s.DirID())
	}
	if !s.Net.dirty {
		t.Fatal("100k applies left the network clean")
	}
	// The System stays within the allocation size class it had before it
	// recorded anything (176 B): the litmus explorer clones one per world
	// it keeps. What a step resolves against lives in the shared Layouts.
	if sz := unsafe.Sizeof(*s); sz > 176 {
		t.Errorf("System is %d B, past its 176 B size class", sz)
	}
}
