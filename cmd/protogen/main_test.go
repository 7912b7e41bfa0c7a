package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// runBG drives the CLI without cancellation; generation has no
// cancellation points.
func runBG(args []string, out io.Writer) error {
	return run(context.Background(), args, out)
}

// TestRunOutputs: every output backend renders through the real CLI path.
func TestRunOutputs(t *testing.T) {
	cases := []struct {
		out  string
		want string
	}{
		{"summary", "protocol MSI"},
		{"table", "Load"},
		{"dsl", "protocol MSI;"},
		{"murphi", "invariant"},
		{"dot", "digraph"},
		{"fsm", "IMAD"},
	}
	for _, c := range cases {
		var out strings.Builder
		if err := runBG([]string{"-protocol", "MSI", "-out", c.out}, &out); err != nil {
			t.Errorf("-out %s: %v", c.out, err)
			continue
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("-out %s: output lacks %q:\n%.400s", c.out, c.want, out.String())
		}
	}
}

// TestRunList: -list prints the registry.
func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := runBG([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MSI", "MESI", "MOSI", "TSO_CC"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list lacks %s:\n%s", name, out.String())
		}
	}
}

// TestRunErrors: bad flags come back as errors.
func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := runBG([]string{"-protocol", "NoSuch"}, &out); err == nil {
		t.Error("unknown protocol must error")
	}
	if err := runBG([]string{"-out", "bogus"}, &out); err == nil {
		t.Error("unknown output must error")
	}
	if err := runBG([]string{"-mode", "bogus"}, &out); err == nil {
		t.Error("unknown mode must error")
	}
}
