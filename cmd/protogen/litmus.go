package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"protogen"
)

// subjectReport is the JSON wire form of one subject's oracle run.
type subjectReport struct {
	Name   string                 `json:"name"`
	Report *protogen.LitmusReport `json:"report"`
}

// litmus runs the exhaustive litmus oracle over every subject.
func litmus(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("litmus", stdout)
	var subject SpecFlags // no -mode tests the nonstalling design
	subject.Bind(fs, All)
	var check CheckFlags // -caches 0: max(3, thread count)
	check.Bind(fs, Caches)
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
	if err := parse(fs, args); err != nil {
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

	testNames := Fields(*tests)
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
