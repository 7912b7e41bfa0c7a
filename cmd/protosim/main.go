// Command protosim runs a generated protocol under randomized scheduling
// with a chosen workload and reports stall counts, message counts and
// transaction latencies — quantifying the paper's "reduce stalling" claim.
//
// Usage:
//
//	protosim -protocol MSI -workload contended -steps 50000
//	protosim -protocol MSI -mode stalling -workload contended
//	protosim -file my.ssp -steps 200000 -timeout 30s
//
// Ctrl-C (or -timeout expiry) stops the scheduler and prints the stats
// of the steps that ran, flagged as partial.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"protogen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "protosim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("protosim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		name     = fs.String("protocol", "MSI", "registry protocol name")
		file     = fs.String("file", "", "read the SSP from a file instead of a built-in")
		mode     = fs.String("mode", "nonstalling", "nonstalling, stalling, deferred")
		workload = fs.String("workload", "contended", "contended, producer-consumer, read-mostly, migratory")
		steps    = fs.Int("steps", 50000, "scheduler steps")
		caches   = fs.Int("caches", 3, "number of caches")
		seed     = fs.Int64("seed", 1, "random seed")
		timeout  = fs.Duration("timeout", 0, "stop the run after this long and report partial stats (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	spec, err := protogen.LoadSpec(*name, *file)
	if err != nil {
		return err
	}
	var w protogen.Workload
	for _, cand := range protogen.StandardWorkloads() {
		if cand.Name() == *workload {
			w = cand
		}
	}
	if w == nil {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	st, err := protogen.NewEngine().Simulate(ctx, protogen.SimulateJob{
		Spec: spec,
		Mode: *mode,
		Config: protogen.SimConfig{
			Caches: *caches, Steps: *steps, Seed: *seed, Workload: w,
		},
	})
	if err != nil {
		return err
	}
	label := spec.Name
	partial := ""
	if st.Canceled {
		partial = "  (interrupted; partial)"
	}
	fmt.Fprintf(stdout, "%s %s %s: %s%s\n", label, *mode, w.Name(), st, partial)
	if st.SCViolations > 0 {
		return fmt.Errorf("%d per-location SC violations detected", st.SCViolations)
	}
	if st.Canceled {
		// Same exit-code contract as protoverify/protofuzz: an
		// interrupted run is reported, then exits non-zero.
		return fmt.Errorf("simulation canceled after %d of %d steps", st.Steps, *steps)
	}
	return nil
}
