package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"protogen"
)

// fuzz runs a differential campaign over a seed range, replays the
// committed corpus (-replay), or lists what it draws from (-list).
func fuzz(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("fuzz", stdout)
	check := CheckFlags{Caches: 2} // the differential checks' scale; -parallel is campaign workers
	check.Bind(fs, Caches|Parallel|Timeout|CacheDir)
	var (
		seeds    = fs.String("seeds", "0:100", "seed range first:last (half-open)")
		family   = fs.String("family", "", "comma-separated family names (default: every shipped family; broken/boundary families must be named explicitly)")
		maxSts   = fs.Int("max", 500_000, "per-mode state cap (0 = default)")
		simSteps = fs.Int("sim-steps", 3000, "simulator SC-check steps (0 disables)")
		shrink   = fs.Bool("shrink", true, "shrink failing specs to minimal reproducers")
		corpus   = fs.String("corpus", "", "write minimized reproducers into this directory")
		noLint   = fs.Bool("no-lint", false, "disable the static-analyzer pre-pass (no lint verdicts, no lint-vs-checker cross-check)")
		noLit    = fs.Bool("no-litmus", false, "disable the litmus-oracle dimension (no litmus verdicts, no litmus-vs-checker cross-check)")
		noPOR    = fs.Bool("no-por", false, "disable the por-vs-full dimension (no reduced-vs-full verdict cross-check)")
		litSts   = fs.Int("litmus-states", 0, "per-test state cap for the litmus dimension (0 = package default; over budget the verdict is capped, not failed)")
		jsonOut  = fs.String("json", "", "write one JSON report line per spec to this file (- = stdout)")
		list     = fs.Bool("list", false, "list families, boundary shapes and corpus entries")
		replay   = fs.Bool("replay", false, "replay the committed regression corpus")
		verbose  = fs.Bool("v", false, "print every spec's outcome plus a progress line as seeds complete")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if *list {
		return listEntries(stdout)
	}

	cfg := protogen.DefaultFuzzConfig()
	cfg.Caches = check.Caches
	cfg.MaxStates = *maxSts
	cfg.SimSteps = *simSteps
	cfg.Shrink = *shrink
	cfg.NoLint = *noLint
	cfg.NoLitmus = *noLit
	cfg.NoPOR = *noPOR
	cfg.LitmusMaxStates = *litSts
	cfg.Families = Fields(*family)

	ctx, eng, done := check.Start(ctx, func(msg string) { fmt.Fprintf(stdout, "warning: %s\n", msg) })
	defer done()

	if *replay {
		// Replay is a regression gate on the CURRENT binary: serving
		// verdicts memoized by an older build would make it vacuous, so
		// the result cache is deliberately not wired in here.
		return replayCorpus(ctx, stdout, cfg)
	}

	first, last, err := parseSeeds(*seeds)
	if err != nil {
		return err
	}

	job := protogen.FuzzJob{First: first, Last: last, Config: &cfg}
	if *verbose && *jsonOut != "-" {
		job.OnProgress = func(ev protogen.ProgressEvent) { fmt.Fprintln(stdout, ev) }
	}

	start := time.Now()
	rep, err := eng.Fuzz(ctx, job)
	if err != nil {
		return err
	}
	if err := report(stdout, rep, *jsonOut, *corpus, *verbose); err != nil {
		return err
	}
	if *jsonOut != "-" { // keep stdout pure JSONL when streaming there
		fmt.Fprintf(stdout, "%s in %.1fs\n", rep.Summary(), time.Since(start).Seconds())
		if cache, _ := eng.Cache(); cache != nil {
			fmt.Fprintf(stdout, "result cache: %d hits, %d re-verifications (%d entries in %s)\n",
				rep.CachedChecks, rep.RanChecks, cache.Len(), check.CacheDir)
		}
	}
	if rep.Fail > 0 {
		return fmt.Errorf("%d of %d specs failed the differential campaign", rep.Fail, len(rep.Specs))
	}
	if rep.Canceled {
		return fmt.Errorf("campaign canceled after %d of %d seeds (all completed seeds passed)",
			len(rep.Specs), rep.SeedsTotal)
	}
	return nil
}

// parseSeeds parses a "first:last" half-open range.
func parseSeeds(s string) (uint64, uint64, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-seeds %q: want first:last", s)
	}
	first, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-seeds %q: %v", s, err)
	}
	last, err := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-seeds %q: %v", s, err)
	}
	if last <= first {
		return 0, 0, fmt.Errorf("-seeds %q: empty range", s)
	}
	return first, last, nil
}

// report renders per-spec outcomes, the JSONL stream, and writes
// minimized reproducers to the corpus directory. With -json - the
// human-readable lines are suppressed so stdout stays pure JSONL.
func report(stdout io.Writer, rep *protogen.FuzzReport, jsonOut, corpusDir string, verbose bool) error {
	wrote, err := protogen.WriteFuzzReproducers(corpusDir, rep)
	if err != nil {
		return err
	}
	human := stdout
	var jw io.Writer
	if jsonOut == "-" {
		jw = stdout
		human = io.Discard
	} else if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jw = f
	}
	var enc *json.Encoder
	if jw != nil {
		enc = json.NewEncoder(jw)
	}
	for i := range rep.Specs {
		r := &rep.Specs[i]
		if enc != nil {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		lint := ""
		if r.Lint != "" && r.Lint != "clean" {
			lint = " lint=" + r.Lint
		}
		if r.Litmus != "" && r.Litmus != "clean" {
			lint += " litmus=" + r.Litmus
		}
		if r.POR != "" && r.POR != "clean" {
			lint += " por=" + r.POR
		}
		if r.OK() {
			if verbose {
				fmt.Fprintf(human, "seed %-6d %-24s L=%d pass%s (%dms)\n", r.Seed, r.Family, r.PendingLimit, lint, r.ElapsedMS)
			}
			continue
		}
		fmt.Fprintf(human, "seed %-6d %-24s L=%d FAIL %s%s — %s\n", r.Seed, r.Family, r.PendingLimit, r.Failure, lint, r.Failure.Detail)
		if r.Minimized != "" {
			n := "?"
			if c, err := protogen.FuzzTxnCount(r.Minimized); err == nil {
				n = strconv.Itoa(c)
			}
			fmt.Fprintf(human, "           minimized to %s processes\n", n)
			if len(wrote) > 0 { // one file per minimized reproducer, in report order
				fmt.Fprintf(human, "           wrote %s\n", wrote[0])
				wrote = wrote[1:]
			}
		}
	}
	return nil
}

// listEntries prints the family pools and the committed corpus.
func listEntries(stdout io.Writer) error {
	fmt.Fprintln(stdout, "shipped families (random seeds draw from these):")
	for _, p := range protogen.FuzzShapes() {
		fmt.Fprintf(stdout, "  %s\n", p.Name())
	}
	fmt.Fprintln(stdout, "broken families (planted bugs; must be caught):")
	for _, p := range protogen.FuzzBrokenShapes() {
		fmt.Fprintf(stdout, "  %s\n", p.Name())
	}
	fmt.Fprintln(stdout, "boundary families (known generator limits):")
	for _, p := range protogen.FuzzBoundaryShapes() {
		fmt.Fprintf(stdout, "  %s\n", p.Name())
	}
	entries, err := protogen.FuzzCorpus()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "corpus reproducers:")
	for _, e := range entries {
		fmt.Fprintf(stdout, "  corpus/%-28s %d txns, expect %s\n", e.Name, e.Txns, e.Expect)
	}
	return nil
}

// replayCorpus re-runs the oracle on every committed reproducer.
// Ctrl-C (the signal context) stops between entries — without the check
// the installed signal handler would swallow the interrupt entirely.
func replayCorpus(ctx context.Context, stdout io.Writer, cfg protogen.FuzzConfig) error {
	entries, err := protogen.FuzzCorpus()
	if err != nil {
		return err
	}
	cfg.Shrink = false
	bad := 0
	for i, e := range entries {
		if ctx.Err() != nil {
			return fmt.Errorf("replay canceled after %d of %d corpus entries", i, len(entries))
		}
		r := protogen.FuzzCheckSource(e.Source, 1, e.ReplaySimSeed(), cfg)
		status := "reproduced"
		if r.OK() {
			status = "NO LONGER FAILS"
			bad++
		} else if r.Failure.Class != e.Expect.Class {
			status = fmt.Sprintf("CLASS DRIFT: %s (expected %s)", r.Failure, e.Expect)
			bad++
		}
		fmt.Fprintf(stdout, "%-28s expect %-24s %s\n", e.Name, e.Expect.String(), status)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d corpus entries drifted", bad, len(entries))
	}
	fmt.Fprintf(stdout, "%d corpus entries reproduced\n", len(entries))
	return nil
}
