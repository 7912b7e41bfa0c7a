package main

import (
	"strings"
	"testing"
)

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
