package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protogen"
)

var update = flag.Bool("update", false, "rewrite the testdata/fsm and testdata/table goldens from the current generator")

// TestRunOutputs: every output backend renders through the real CLI
// path, and -machine dir and directory both pick the directory.
func TestRunOutputs(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-out", "summary"}, "protocol MSI"},
		{[]string{"-out", "table"}, "Load"},
		{[]string{"-out", "dsl"}, "protocol MSI;"},
		{[]string{"-out", "murphi"}, "invariant"},
		{[]string{"-out", "dot"}, "digraph cache {"},
		{[]string{"-out", "dot", "-machine", "dir"}, "digraph directory {"},
		{[]string{"-out", "dot", "-machine", "directory"}, "digraph directory {"},
		{[]string{"-out", "fsm"}, "IMAD"},
	}
	for _, c := range cases {
		var out strings.Builder
		if err := runBG(append([]string{"generate", "-protocol", "MSI"}, c.args...), &out); err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%q: output lacks %q:\n%.400s", c.args, c.want, out.String())
		}
	}
}

// TestFSMGolden holds `generate -out fsm` for every registry protocol in
// every mode to the text under testdata/fsm, so a generator change shows
// up as a reviewable diff of controller tables rather than a moved hash.
// Regenerate with: go test ./cmd/protogen -run TestFSMGolden -update
func TestFSMGolden(t *testing.T) {
	testGolden(t, "fsm", []string{"-out", "fsm"})
}

// TestTableGolden holds `generate -out table -stale` for every registry
// protocol in every mode, the cache's table followed by the directory's,
// to the text under testdata/table: the byte-identity net for the table
// renderer, whose other tests check substrings only.
// Regenerate with: go test ./cmd/protogen -run TestTableGolden -update
func TestTableGolden(t *testing.T) {
	testGolden(t, "table",
		[]string{"-out", "table", "-stale", "-machine", "cache"},
		[]string{"-out", "table", "-stale", "-machine", "dir"})
}

// testGolden runs `generate -protocol P -mode M` with each argument list
// in turn for every registry protocol P and mode M, and holds the joined
// output to testdata/<kind>/P_M.<kind>; -update rewrites the files.
func testGolden(t *testing.T, kind string, runs ...[]string) {
	for _, e := range protogen.Builtins() {
		for _, mode := range protogen.Modes {
			name := e.Name + "_" + mode
			t.Run(name, func(t *testing.T) {
				var out strings.Builder
				for _, args := range runs {
					if err := runBG(append([]string{"generate", "-protocol", e.Name, "-mode", mode}, args...), &out); err != nil {
						t.Fatal(err)
					}
				}
				path := filepath.Join("testdata", kind, name+"."+kind)
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (record with -update)", err)
				}
				if out.String() != string(want) {
					t.Errorf("generate %q differs from %s (-update rewrites it; review the diff)", runs, path)
				}
			})
		}
	}
}
