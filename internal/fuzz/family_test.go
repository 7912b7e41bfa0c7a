package fuzz

import (
	"strings"
	"testing"

	"protogen/internal/dsl"
	"protogen/internal/ir"
)

// TestShapesWellFormed: every shipped shape emits DSL that parses,
// validates and round-trips through the formatter.
func TestShapesWellFormed(t *testing.T) {
	if len(Shapes()) < 8 {
		t.Fatalf("shipped family pool too small: %d", len(Shapes()))
	}
	for _, p := range Shapes() {
		src := p.Source()
		spec, err := dsl.Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", p.Name(), err)
			continue
		}
		if spec.Name != p.Name() {
			t.Errorf("%s: spec named %s", p.Name(), spec.Name)
		}
		if err := ir.ValidateSpec(spec); err != nil {
			t.Errorf("%s: validate: %v", p.Name(), err)
		}
		// Round trip: Format -> Parse -> Format must be a fixpoint.
		f1 := dsl.Format(spec)
		spec2, err := dsl.Parse(f1)
		if err != nil {
			t.Errorf("%s: reparse of formatted source: %v", p.Name(), err)
			continue
		}
		if f2 := dsl.Format(spec2); f1 != f2 {
			t.Errorf("%s: Format is not a round-trip fixpoint", p.Name())
		}
	}
}

// TestShapeNamesStable: seeds index into the shape pool, so pool order
// and names are part of the campaign's reproducibility contract.
func TestShapeNamesStable(t *testing.T) {
	want := []string{
		"FZ_MSI", "FZ_MI", "FZ_MESI", "FZ_MOSI",
		"FZ_MSI_upg", "FZ_MESI_upg", "FZ_MOSI_upg", "FZ_MSI_unord",
	}
	got := FamilyNames()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("shipped pool changed:\n got %v\nwant %v", got, want)
	}
	names := append([]string{}, want...)
	for _, p := range BrokenShapes() {
		names = append(names, p.Name())
	}
	for _, name := range names {
		p, ok := ShapeByName(name)
		if !ok {
			t.Errorf("ShapeByName(%q) failed", name)
			continue
		}
		if p.Name() != name {
			t.Errorf("ShapeByName(%q) returned %q", name, p.Name())
		}
	}
}

// TestCanonicalize: constraint resolution is deterministic and total.
func TestCanonicalize(t *testing.T) {
	p := Params{MI: true, Exclusive: true, Owned: true, Upgrade: true, Unordered: true, SilentDrop: true}.Canonicalize()
	if p.Exclusive || p.Owned || p.Upgrade || p.Unordered || p.SilentDrop {
		t.Errorf("MI must clamp every S-dependent axis: %+v", p)
	}
	p = Params{Exclusive: true, Owned: true}.Canonicalize()
	if p.Exclusive {
		t.Errorf("E+O must resolve to Owned: %+v", p)
	}
	p = Params{Unordered: true, Owned: true}.Canonicalize()
	if p.Owned {
		t.Errorf("unordered+Owned must resolve to plain unordered MSI: %+v", p)
	}
}

// TestBoundaryShapes documents the generator boundary the fire-and-forget
// eviction axis sits on: every boundary member fails the campaign oracle
// in a specific, pinned way. If a generator change moves this boundary
// (e.g. adds support for local-completion replacements), this test is the
// prompt to promote the affected shapes into the shipped pool.
func TestBoundaryShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("boundary oracle runs the full differential check per shape")
	}
	want := map[string]string{
		"FZ_MSI_silent":       "generate",     // Case-1 local completion unsupported
		"FZ_MESI_silent":      "generate",     // same, via the PutE handshake
		"FZ_MOSI_silent":      "differential", // stalling/deferred deadlock, immediate correct
		"FZ_MSI_upg_silent":   "generate",
		"FZ_MESI_upg_silent":  "generate",
		"FZ_MOSI_upg_silent":  "differential",
		"FZ_MSI_silent_unord": "generate",
	}
	shapes := BoundaryShapes()
	if len(shapes) != len(want) {
		t.Errorf("boundary pool has %d members, want %d", len(shapes), len(want))
	}
	cfg := DefaultConfig()
	cfg.Shrink = false
	for _, p := range shapes {
		exp, ok := want[p.Name()]
		if !ok {
			t.Errorf("undocumented boundary shape %s", p.Name())
			continue
		}
		r := CheckSource(p.Source(), 3, 7, cfg)
		if r.Failure.Class != exp {
			t.Errorf("%s: failure class %q, want %q (%s)", p.Name(), r.Failure.Class, exp, r.Failure.Detail)
		}
	}
}
