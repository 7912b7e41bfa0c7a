package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"protogen"
)

// verify model-checks the generated protocol; the package comment has
// its flags in prose and examples.
func verify(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("verify", stdout)
	subject := SpecFlags{Mode: "nonstalling"}
	subject.Bind(fs, 0)
	check := CheckFlags{Caches: 3} // the paper setup and the library default
	check.Bind(fs, Caches|Parallel|Timeout|CacheDir)
	var (
		capacity = fs.Int("capacity", 4, "per-channel capacity (0 = default)")
		maxSts   = fs.Int("max", 4_000_000, "state cap (0 = default)")
		maxViol  = fs.Int("max-violations", 1, "stop after this many violations")
		noSWMR   = fs.Bool("no-swmr", false, "skip the SWMR invariant")
		noVals   = fs.Bool("no-values", false, "skip the data-value invariant")
		noLive   = fs.Bool("no-liveness", false, "skip quiescence reachability")
		noSym    = fs.Bool("no-symmetry", false, "disable symmetry reduction")
		noPrune  = fs.Bool("no-prune", false, "disable sharer pruning on stale Puts (ablation)")
		trace    = fs.Bool("trace", false, "print every violation's counterexample trace")
		fpMode   = fs.Bool("fingerprint", false, "store 64-bit state fingerprints instead of full keys in the visited set (measured 5.2-5.6x less memory; false-merge odds ~n²/2⁶⁵ — an exact run prints how many actually occur)")
		reduce   = fs.Bool("reduce", false, "enable partial-order reduction: identical verdicts, deterministically fewer states/edges (see docs/PERFORMANCE.md)")
		commute  = fs.Bool("audit-commute", false, "with -reduce: re-execute fused rules and sampled rule pairs at runtime and fail hard on any discrepancy with the static independence relation (bypasses the result cache)")
		noLint   = fs.Bool("no-lint", false, "suppress the pre-exploration static-analyzer warnings (see docs/ANALYSIS.md)")
		progress = fs.Bool("progress", false, "print a progress line after each BFS level")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the exploration to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile (taken after the exploration) to this file")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *commute && !*reduce {
		return fmt.Errorf("-audit-commute requires -reduce (there is nothing to audit in a full exploration)")
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stdout, "warning: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	spec, opts, err := subject.Subject()
	if err != nil {
		return err
	}
	if *noPrune {
		opts.PruneSharerOnStalePut = false
	}

	cfg := protogen.DefaultVerifyConfig()
	cfg.Caches = check.Caches
	cfg.Capacity = *capacity
	cfg.MaxStates = *maxSts
	cfg.MaxViolations = *maxViol
	cfg.CheckSWMR = !*noSWMR
	cfg.CheckValues = !*noVals
	cfg.CheckLiveness = !*noLive
	cfg.Symmetry = !*noSym
	cfg.Fingerprint = *fpMode
	cfg.Reduce = *reduce
	cfg.CommuteAudit = *commute

	ctx, eng, done := check.Start(ctx, func(msg string) {
		// Generation-time lint findings arrive "lint:"-prefixed; they
		// are advisory (the checker is the ground truth) and -no-lint
		// silences just them.
		if *noLint && strings.HasPrefix(msg, "lint:") {
			return
		}
		fmt.Fprintf(stdout, "warning: %s\n", msg)
	})
	defer done()

	job := protogen.VerifyJob{Spec: spec, Options: &opts, Config: &cfg}
	if *progress {
		job.OnProgress = func(ev protogen.ProgressEvent) { fmt.Fprintln(stdout, ev) }
	}

	start := time.Now()
	res, err := eng.Verify(ctx, job)
	if err != nil {
		return err
	}
	switch {
	case res.Cached:
		fmt.Fprintf(stdout, "%s  (cached)\n", res)
	case res.Canceled:
		fmt.Fprintf(stdout, "%s  (%.1fs)\n", res, time.Since(start).Seconds())
		fmt.Fprintf(stdout, "interrupted at depth %d: %d states and %d edges explored so far; verdict on the explored prefix only\n",
			res.Depth, res.States, res.Edges)
	default:
		fmt.Fprintf(stdout, "%s  (%.1fs)\n", res, time.Since(start).Seconds())
	}
	if !*fpMode {
		fmt.Fprintf(stdout, "fingerprint collisions: %d over %d states\n", res.FalseMerges, res.States)
	}
	if *reduce {
		switch {
		case len(res.ReduceUnsafe) > 0:
			fmt.Fprintf(stdout, "reduction disabled (ran full): %s\n", strings.Join(res.ReduceUnsafe, "; "))
		case res.CandidateSuccs > 0:
			// No successor ratio: collapse branching emits more successors
			// than it had candidates, so it reads below 1 on a run that
			// stored fewer states.
			fmt.Fprintf(stdout, "reduction: %d states stored, %d steps fused, %d states expanded through an ample set\n",
				res.States, res.FusedSteps, res.ReducedStates)
		}
		if *commute {
			fmt.Fprintf(stdout, "commutation audit: %d pairs re-executed, %d mismatches\n",
				res.CommutePairs, res.CommuteMismatches)
		}
	}
	if !res.OK() {
		for vi, v := range res.Violations {
			fmt.Fprintf(stdout, "violation %d/%d — %s\n", vi+1, len(res.Violations), v)
			if *trace {
				for i, step := range v.Trace {
					fmt.Fprintf(stdout, "  %3d. %s\n", i+1, step)
				}
			}
		}
		return fmt.Errorf("%d violation(s) found", len(res.Violations))
	}
	if res.Canceled {
		return fmt.Errorf("exploration canceled before completion")
	}
	return nil
}
