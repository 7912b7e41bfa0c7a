package litmus

import (
	"fmt"
	"sort"

	"protogen/internal/ir"
)

// Axiom names a consistency model the oracle can check outcome sets
// against. The axioms are ordered by strength: everything SC allows,
// TSO allows; everything TSO allows, Weak allows. Per-location
// coherence (CoRR/CoWR/CoRW shapes) is forbidden under all three —
// even the weak model here is a coherent one, per the self-invalidation
// protocols the catalog targets.
type Axiom string

// The supported consistency axioms.
const (
	// SC is sequential consistency: any outcome explainable by a total
	// order of all operations consistent with program order.
	SC Axiom = "sc"
	// TSO additionally permits write-to-read reordering (store
	// buffering): SB and R relaxations are allowed, MP/WRC/IRIW
	// causality and all write-write order is preserved.
	TSO Axiom = "tso"
	// Weak permits all reorderings except per-location coherence and
	// orders restored by explicit acquire fences — the contract of the
	// lazy self-invalidation protocols (TSO-CC without pending acquires).
	Weak Axiom = "weak"
)

// Axioms lists the supported axioms strongest-first.
func Axioms() []Axiom { return []Axiom{SC, TSO, Weak} }

// ParseAxiom resolves an axiom name.
func ParseAxiom(s string) (Axiom, error) {
	switch Axiom(s) {
	case SC, TSO, Weak:
		return Axiom(s), nil
	}
	return "", fmt.Errorf("unknown axiom %q (want sc, tso or weak)", s)
}

// DefaultAxiom picks the axiom a generated protocol should be held to:
// protocols that implement acquire fences (ir.Protocol.Acquires:
// self-invalidation designs like TSO-CC) are checked under Weak;
// eager-invalidation protocols — every SWMR design the generator's
// standard families produce — are checked under SC.
func DefaultAxiom(p *ir.Protocol) Axiom {
	if p.Acquires() {
		return Weak
	}
	return SC
}

// Class is an outcome's verdict under one axiom.
type Class int

// Outcome classes.
const (
	// Allowed outcomes are permitted under the axiom and under SC.
	Allowed Class = iota
	// Relaxed outcomes are permitted under the axiom but forbidden
	// under SC — observing one is the signature of the relaxation the
	// test probes, not a failure.
	Relaxed
	// Forbidden outcomes violate the axiom: observing one is an oracle
	// failure.
	Forbidden
)

func (c Class) String() string {
	switch c {
	case Allowed:
		return "allowed"
	case Relaxed:
		return "relaxed"
	case Forbidden:
		return "forbidden"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classify returns the outcome's verdict under ax: Forbidden when the
// test's predicate for ax holds, Relaxed when ax permits an outcome SC
// forbids, Allowed otherwise. Unknown axioms classify as Forbidden so a
// misconfigured oracle fails loudly rather than passing silently.
func (t *Test) Classify(ax Axiom, o Outcome) Class {
	f, ok := t.forbid[ax]
	if !ok {
		return Forbidden
	}
	if f(o) {
		return Forbidden
	}
	if fsc, ok := t.forbid[SC]; ok && fsc(o) {
		return Relaxed
	}
	return Allowed
}

// TableEntry is one row of an axiom table: a candidate outcome and its
// verdict.
type TableEntry struct {
	Outcome string `json:"outcome"`
	Class   string `json:"class"`
}

// Table enumerates the test's full candidate outcome space and
// classifies every entry under ax — the machine-checked form of the
// paper-style allowed/forbidden tables. Candidates range each load
// register over 0..k and each store register over 1..k (k = stores to
// its address), with same-address store registers constrained to
// distinct values (they are positions in one coherence order). The
// table is a statement about the axiom, not the protocol: an Allowed
// entry may still be unreachable in a given implementation.
func (t *Test) Table(ax Axiom) []TableEntry {
	regs := t.Registers()
	addrs := t.regAddr()
	kinds := t.regKind()
	vals := make(map[string]int, len(regs))
	var out []TableEntry
	var rec func(i int)
	rec = func(i int) {
		if i == len(regs) {
			o := Outcome{}
			for r, v := range vals {
				o[r] = v
			}
			out = append(out, TableEntry{Outcome: o.String(), Class: t.Classify(ax, o).String()})
			return
		}
		r := regs[i]
		k := t.storeCount(addrs[r])
		lo := 0
		if kinds[r] == OStore {
			lo = 1
		}
	next:
		for v := lo; v <= k; v++ {
			if kinds[r] == OStore {
				// Same-address store registers are distinct coherence
				// positions.
				for j := 0; j < i; j++ {
					prev := regs[j]
					if kinds[prev] == OStore && addrs[prev] == addrs[r] && vals[prev] == v {
						continue next
					}
				}
			}
			vals[r] = v
			rec(i + 1)
		}
		delete(vals, r)
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return out[i].Outcome < out[j].Outcome })
	return out
}
