// Command protolint runs the spec-level static analyzer over SSPs and
// their generated protocols — no state exploration, millisecond
// turnaround, structured diagnostics with stable PGnnn codes. It is
// the fast first gate in front of protoverify: lint, fix what it
// names, then model-check.
//
// Usage:
//
//	protolint -protocol MSI                  # spec + all three generated modes
//	protolint -all                           # every registry protocol (CI gate)
//	protolint -corpus -expect-dirty          # every reproducer must lint dirty
//	protolint -file my.ssp -mode nonstalling # one file, one mode
//	protolint -protocol MESI -spec-only -json # spec layer only, as JSON
//	protolint -all -code PG104,PG105         # restrict to a code set
//	protolint -protocol MSI -code PG302      # dependence pessimizations
//	protolint -all -dep-stats                # dependence stats as JSON
//
// -dep-stats switches to the rule-dependence summary: one JSON line per
// (protocol, mode) with the internal/depend statistics the checker's
// partial-order reduction is built on (class counts, invisible/fusible
// fractions, unsafe facts). The PG3xx diagnostics carry the same facts
// through the normal lint output.
//
// Exit status: 0 when every subject lints clean (no errors and no
// warnings; info notes are allowed), 1 otherwise. -expect-dirty
// inverts the gate for the regression corpus: the run succeeds only
// if every subject yields at least one diagnostic, which is how CI
// keeps the analyzer honest against known-broken specs.
//
// See docs/ANALYSIS.md for the code table and the false-positive
// policy behind the severity ladder.
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

func main() { cli.Main("protolint", run) }

// subjectResult is the JSON wire form of one linted subject.
type subjectResult struct {
	Name    string               `json:"name"`
	Verdict string               `json:"verdict"`
	Result  *protogen.LintResult `json:"result"`
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("protolint", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var subject cli.SpecFlags // no -mode lints all three generated modes
	subject.Bind(fs, cli.All|cli.Corpus)
	var (
		specOnly    = fs.Bool("spec-only", false, "lint the spec layer only; skip generation")
		codes       = fs.String("code", "", "comma-separated diagnostic codes to keep (e.g. PG104,PG110)")
		jsonOut     = fs.Bool("json", false, "emit the full structured reports as JSON")
		depStats    = fs.Bool("dep-stats", false, "emit one JSON line per (subject, mode) with the rule-dependence statistics instead of lint reports")
		verbose     = fs.Bool("v", false, "also print info-severity notes")
		expectDirty = fs.Bool("expect-dirty", false, "succeed only if every subject yields at least one diagnostic (corpus CI smoke)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specOnly && subject.Mode != "" {
		return fmt.Errorf("-spec-only and -mode are mutually exclusive")
	}
	if *depStats && *specOnly {
		return fmt.Errorf("-dep-stats analyzes generated protocols; drop -spec-only")
	}
	subjects, err := subject.Subjects()
	if err != nil {
		return err
	}
	// modes stays nil — LintJob's "all three" — unless a flag narrows it.
	var modes []string
	switch {
	case *specOnly:
		modes = []string{}
	case subject.Mode != "":
		modes = []string{subject.Mode}
	}
	if *depStats {
		return depStatsRun(stdout, subjects, modes)
	}

	codeList := cli.Fields(*codes)
	eng := protogen.NewEngine()
	defer eng.Close()

	var (
		results []subjectResult
		dirty   []string // subjects with no diagnostics, under -expect-dirty
		unclean []string // subjects with warnings or errors, normally
	)
	for _, sub := range subjects {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := eng.Lint(ctx, protogen.LintJob{Spec: sub.Spec, Modes: modes, Codes: codeList})
		if err != nil {
			if *expectDirty {
				// For known-broken reproducers a generation failure is
				// itself the finding; the subject counts as dirty.
				fmt.Fprintf(stdout, "%s: lint aborted (counts as dirty): %v\n", sub.Name, err)
				continue
			}
			return fmt.Errorf("%s: %w", sub.Name, err)
		}
		results = append(results, subjectResult{Name: sub.Name, Verdict: res.Verdict(), Result: res})
		total := 0
		for _, rep := range res.Reports {
			total += len(rep.Diags)
		}
		if total == 0 {
			dirty = append(dirty, sub.Name)
		}
		if !res.Clean() {
			unclean = append(unclean, sub.Name)
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "%s: %s\n", sub.Name, res.Summary())
			for _, rep := range res.Reports {
				layer := rep.Layer
				if rep.Mode != "" {
					layer = rep.Mode
				}
				for _, d := range rep.Diags {
					if d.Severity == protogen.LintInfo && !*verbose {
						continue
					}
					fmt.Fprintf(stdout, "  [%s] %s\n", layer, d.String())
				}
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"subjects": results}); err != nil {
			return err
		}
	}

	if *expectDirty {
		if len(dirty) > 0 {
			return fmt.Errorf("expected every subject to lint dirty; clean: %s", strings.Join(dirty, ", "))
		}
		return nil
	}
	if len(unclean) > 0 {
		return fmt.Errorf("%d subject(s) did not lint clean: %s", len(unclean), strings.Join(unclean, ", "))
	}
	return nil
}

// depStatsLine is the JSONL wire form of one (subject, mode) dependence
// summary.
type depStatsLine struct {
	Name  string               `json:"name"`
	Mode  string               `json:"mode"`
	Stats protogen.DependStats `json:"stats"`
}

// depStatsRun generates each subject in each requested mode and emits
// its rule-dependence statistics as one JSON line, sorted by (subject,
// mode) order of the inputs. Generation failures abort: -dep-stats is a
// measurement mode, not a defect finder.
func depStatsRun(stdout io.Writer, subjects []cli.Subject, modes []string) error {
	if modes == nil {
		modes = protogen.Modes
	}
	enc := json.NewEncoder(stdout)
	for _, sub := range subjects {
		for _, m := range modes {
			if err := emitDepStats(enc, sub.Name, m, sub.Spec); err != nil {
				return err
			}
		}
	}
	return nil
}

func emitDepStats(enc *json.Encoder, name, mode string, spec *protogen.Spec) error {
	opts, err := protogen.OptionsForMode(mode)
	if err != nil {
		return err
	}
	p, err := protogen.Generate(spec, opts)
	if err != nil {
		return fmt.Errorf("%s (%s): %w", name, mode, err)
	}
	return enc.Encode(depStatsLine{Name: name, Mode: mode, Stats: protogen.DependStatsFor(p)})
}
