// Command protolitmus runs the exhaustive weak-memory litmus oracle:
// it enumerates every schedule of the catalog's litmus shapes over a
// composed multi-cache system and classifies each reachable outcome
// against a consistency axiom (sc, tso or weak). Because exploration
// is exhaustive, the outcome sets are exact — a forbidden outcome is
// a coherence bug, and an absent one is proven absent, not merely
// unobserved.
//
// Usage:
//
//	protolitmus -protocol MSI                  # full catalog, default axiom
//	protolitmus -all                           # every registry protocol (CI gate)
//	protolitmus -protocol TSO_CC -test MP,SB   # a named subset
//	protolitmus -protocol MESI -axiom sc -json # force an axiom, JSON report
//	protolitmus -protocol MSI -runs 10000      # add a randomized sample
//	protolitmus -list                          # print the catalog and exit
//
// With -runs the oracle also cross-checks the sample against the
// exhaustive set (sampled ⊆ exhaustive); an escape is reported as a
// harness soundness bug. -exhaustive=false -runs N samples only.
//
// Exit status: 0 when no test fails (no forbidden outcome, no stuck
// configuration, no containment violation), 1 otherwise. An
// exhaustive search that hits the -max-states budget weakens verdicts
// from "proven absent" to "not observed" but is not itself a failure.
//
// See docs/LITMUS.md for the shape catalog and the axiom tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"protogen"
	"protogen/cmd/internal/cli"
)

func main() { cli.Main("protolitmus", run) }

// subjectReport is the JSON wire form of one subject's oracle run.
type subjectReport struct {
	Name   string                 `json:"name"`
	Report *protogen.LitmusReport `json:"report"`
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("protolitmus", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var subject cli.SpecFlags // no -mode tests the nonstalling design
	subject.Bind(fs, cli.All)
	var check cli.CheckFlags // -caches 0: max(3, thread count)
	check.Bind(fs, cli.Caches)
	var (
		tests      = fs.String("test", "", "comma-separated catalog test names (default: the full catalog)")
		axiom      = fs.String("axiom", "", "consistency axiom to classify under: sc, tso or weak (default: the protocol's)")
		exhaustive = fs.Bool("exhaustive", true, "enumerate every schedule for exact outcome sets")
		runs       = fs.Int("runs", 0, "randomized sample size per test (0: exhaustive only)")
		seed       = fs.Int64("seed", 1, "sampling seed")
		maxStates  = fs.Int("max-states", 0, "exhaustive state budget per test (0: package default)")
		jsonOut    = fs.Bool("json", false, "emit the full structured reports as JSON")
		list       = fs.Bool("list", false, "print the test catalog and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, t := range protogen.LitmusCatalog() {
			fmt.Fprintf(stdout, "%-12s %s\n", t.Name, t.Doc)
		}
		return nil
	}
	if !*exhaustive && *runs <= 0 {
		return fmt.Errorf("-exhaustive=false needs -runs")
	}

	subjects, err := subject.Subjects()
	if err != nil {
		return err
	}

	testNames := cli.Fields(*tests)
	eng := protogen.NewEngine()
	defer eng.Close()

	var (
		reports []subjectReport
		failing []string
	)
	for _, sub := range subjects {
		if err := ctx.Err(); err != nil {
			return err
		}
		rep, err := eng.Litmus(ctx, protogen.LitmusJob{
			Spec:       sub.Spec,
			Mode:       subject.Mode,
			Tests:      testNames,
			Axiom:      *axiom,
			Exhaustive: *exhaustive,
			Runs:       *runs,
			Seed:       *seed,
			Caches:     check.Caches,
			MaxStates:  *maxStates,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sub.Name, err)
		}
		reports = append(reports, subjectReport{Name: sub.Name, Report: rep})
		if len(rep.Failures()) > 0 || rep.Canceled {
			failing = append(failing, sub.Name)
		}
		if !*jsonOut {
			printReport(stdout, sub.Name, rep)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"subjects": reports}); err != nil {
			return err
		}
	}

	if len(failing) > 0 {
		return fmt.Errorf("%d subject(s) failed the oracle: %s", len(failing), strings.Join(failing, ", "))
	}
	return nil
}

// printReport renders one subject's oracle run for humans: a header
// line per test, its outcome table, and any failure detail.
func printReport(w io.Writer, name string, rep *protogen.LitmusReport) {
	fmt.Fprintf(w, "%s: %s\n", name, rep.Summary())
	for i := range rep.Results {
		r := &rep.Results[i]
		verdict := "ok"
		switch {
		case r.Failed():
			verdict = "FAIL"
		case !r.Complete:
			verdict = "incomplete"
		}
		fmt.Fprintf(w, "  %-12s %-10s %d outcomes, %d states\n", r.Test, verdict, len(r.Outcomes), r.States)
		for _, row := range r.Outcomes {
			mark := " "
			switch row.Class {
			case "forbidden":
				mark = "!"
			case "relaxed":
				mark = "~"
			}
			if row.Count > 0 {
				fmt.Fprintf(w, "    %s {%s} %s ×%d\n", mark, row.Outcome, row.Class, row.Count)
			} else {
				fmt.Fprintf(w, "    %s {%s} %s\n", mark, row.Outcome, row.Class)
			}
		}
		for _, s := range r.Stuck {
			fmt.Fprintf(w, "    stuck: %s\n", s)
		}
		if r.Err != "" {
			fmt.Fprintf(w, "    error: %s\n", r.Err)
		}
	}
}
