package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"protogen"
)

// generate prints the protocol generated from the subject SSP in the
// -out form; a table or graph shows the -machine controller.
func generate(_ context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("generate", stdout)
	subject := SpecFlags{Mode: "nonstalling"}
	subject.Bind(fs, 0)
	var (
		limit   = fs.Int("L", 0, "pending-transaction limit (0 = default)")
		out     = fs.String("out", "summary", "output: summary, table, dsl, murphi, dot, fsm")
		machine = fs.String("machine", "cache", "which controller to print: cache, dir")
		stale   = fs.Bool("stale", false, "show generated stale handling in tables")
		list    = fs.Bool("list", false, "list registry protocols (builtins, fuzz family exemplars, corpus reproducers)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if *list {
		entries, err := protogen.RegistryEntries()
		if err != nil {
			return err
		}
		for _, e := range entries {
			fmt.Fprintf(stdout, "%-14s %s\n", e.Name, e.Paper)
		}
		return nil
	}

	spec, opts, err := subject.Subject()
	if err != nil {
		return err
	}
	if *limit > 0 {
		opts.PendingLimit = *limit
	}
	p, err := protogen.Generate(spec, opts)
	if err != nil {
		return err
	}

	var m *protogen.Machine
	switch *machine {
	case "cache":
		m = p.Cache
	case "dir", "directory":
		m = p.Dir
	default:
		return fmt.Errorf("unknown -machine %q (want cache, dir or directory)", *machine)
	}
	switch *out {
	case "summary":
		printSummary(stdout, p)
	case "table":
		fmt.Fprint(stdout, protogen.RenderTable(m, protogen.TableOptions{ShowStale: *stale}))
	case "dsl":
		fmt.Fprint(stdout, protogen.FormatSSP(spec))
	case "murphi":
		fmt.Fprint(stdout, protogen.EmitMurphi(p, protogen.DefaultMurphiOptions()))
	case "dot":
		fmt.Fprint(stdout, protogen.RenderDot(m, nil))
	case "fsm":
		fmt.Fprint(stdout, protogen.FormatProtocol(p))
	default:
		return fmt.Errorf("unknown -out %q", *out)
	}
	return nil
}

func printSummary(w io.Writer, p *protogen.Protocol) {
	fmt.Fprintf(w, "protocol %s (%s)\n", p.Name, p.OptsNote)
	for _, m := range []*protogen.Machine{p.Cache, p.Dir} {
		s, tr, st := m.Counts()
		fmt.Fprintf(w, "  %-10s %2d states, %3d transitions, %3d stalls\n", m.Name+":", s, tr, st)
		fmt.Fprintf(w, "    states: %s\n", join(m))
	}
	if len(p.Renames) > 0 {
		fmt.Fprintf(w, "  renames: %v\n", p.Renames)
	}
	if len(p.Reinterpret) > 0 {
		fmt.Fprintf(w, "  reinterpretations: %v\n", p.Reinterpret)
	}
}

func join(m *protogen.Machine) string {
	var parts []string
	for _, n := range m.Order {
		st := m.State(n)
		s := string(n)
		for _, a := range st.Aliases {
			s += "=" + string(a)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}
