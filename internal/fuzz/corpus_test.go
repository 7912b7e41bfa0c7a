package fuzz

import (
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/protocols"
)

// TestCorpusReplay: the table-driven regression gate — every committed
// reproducer must keep failing with its recorded class and kind, in the
// recorded mode. A reproducer that stops failing means either a checker
// regression (it can no longer see the bug) or a generator behavior
// change; both demand attention, not a silent pass.
func TestCorpusReplay(t *testing.T) {
	entries, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("corpus has %d entries, want >= 3", len(entries))
	}
	cfg := DefaultConfig()
	cfg.Shrink = false
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			r := CheckSource(e.Source, 1, e.ReplaySimSeed(), cfg)
			if r.OK() {
				t.Fatalf("reproducer no longer fails (expected %s)", e.Expect)
			}
			if r.Failure.Class != e.Expect.Class {
				t.Errorf("failure class %q, want %q (%s)", r.Failure.Class, e.Expect.Class, r.Failure.Detail)
			}
			if e.Expect.Kind != "" && r.Failure.Kind != e.Expect.Kind {
				t.Errorf("failure kind %q, want %q (%s)", r.Failure.Kind, e.Expect.Kind, r.Failure.Detail)
			}
			if n, err := TxnCount(e.Source); err != nil {
				t.Errorf("reproducer unparseable: %v", err)
			} else if e.Txns != 0 && n != e.Txns {
				t.Errorf("reproducer has %d processes, header says %d", n, e.Txns)
			}
		})
	}
}

// TestCorpusRoundTrip: the corpus file format round-trips.
func TestCorpusRoundTrip(t *testing.T) {
	e := CorpusEntry{
		Name:   "x",
		Family: "FZ_MI_double_grant",
		Seed:   12,
		Expect: Failure{Class: "safety", Kind: "SWMR", Mode: "stalling"},
		Txns:   5,
		Source: "protocol X;\n",
	}
	got, err := parseCorpusEntry("x", e.Render())
	if err != nil {
		t.Fatal(err)
	}
	if got.Family != e.Family || got.Seed != e.Seed || got.Expect != e.Expect || got.Txns != e.Txns {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if !strings.Contains(got.Source, "protocol X;") {
		t.Errorf("round trip lost the source")
	}
}

// TestEntries: every family exemplar and corpus reproducer is listed
// once, no name repeats or shadows a builtin (builtins resolve first, so
// a shadowed entry could never be reached), and every source parses.
func TestEntries(t *testing.T) {
	entries, err := Entries()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Shapes()) + len(corpus); len(entries) != want {
		t.Errorf("%d entries, want %d exemplars plus %d reproducers", len(entries), len(Shapes()), len(corpus))
	}
	seen := map[string]bool{}
	for _, e := range protocols.All {
		seen[e.Name] = true
	}
	for _, e := range entries {
		if e.Name == "" || e.Source == "" || e.Paper == "" {
			t.Errorf("entry %q incomplete", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("name %q repeats or shadows a builtin", e.Name)
		}
		seen[e.Name] = true
		if _, err := dsl.Parse(e.Source); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
	for _, name := range []string{"FZ_MESI_upg", "corpus/FZ_MI_double_grant"} {
		if !seen[name] {
			t.Errorf("%s not listed", name)
		}
	}
}

// TestAcquiresTSOCCOnly: of the builtins, the family exemplars and the
// corpus reproducers, only TSO_CC has acquire fences, so only TSO_CC is
// exempt from the checker's SWMR and data-value invariants and held to
// the weak litmus axiom.
func TestAcquiresTSOCCOnly(t *testing.T) {
	entries, err := Entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(append([]protocols.Entry(nil), protocols.All...), entries...) {
		spec, err := dsl.Parse(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		p, err := core.Generate(spec, core.NonStallingOpts())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got := p.Acquires(); got != (e.Name == "TSO_CC") {
			t.Errorf("%s: Acquires() = %v", e.Name, got)
		}
	}
}
