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
	"flag"
	"fmt"
	"io"

	"protogen"
	"protogen/cmd/internal/cli"
)

func main() { cli.Main("protosim", run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("protosim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	subject := cli.SpecFlags{Mode: "nonstalling"}
	subject.Bind(fs, 0)
	check := cli.CheckFlags{Caches: 3}
	check.Bind(fs, cli.Caches|cli.Timeout)
	var (
		workload = fs.String("workload", "contended", "contended, producer-consumer, read-mostly, migratory")
		steps    = fs.Int("steps", 50000, "scheduler steps")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, opts, err := subject.Subject()
	if err != nil {
		return err
	}
	w, err := protogen.WorkloadByName(*workload)
	if err != nil {
		return err
	}
	ctx, eng, done := check.Start(ctx, nil)
	defer done()
	st, err := eng.Simulate(ctx, protogen.SimulateJob{
		Spec:    spec,
		Options: &opts,
		Config: protogen.SimConfig{
			Caches: check.Caches, Steps: *steps, Seed: *seed, Workload: w,
		},
	})
	if err != nil {
		return err
	}
	partial := ""
	if st.Canceled {
		partial = "  (interrupted; partial)"
	}
	fmt.Fprintf(stdout, "%s %s %s: %s%s\n", spec.Name, subject.Mode, w.Name(), st, partial)
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
