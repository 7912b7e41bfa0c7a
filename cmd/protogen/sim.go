package main

import (
	"context"
	"fmt"
	"io"

	"protogen"
)

// sim simulates the generated protocol; a canceled run prints the
// stats of the steps that ran, flagged as partial.
func sim(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("sim", stdout)
	subject := SpecFlags{Mode: "nonstalling"}
	subject.Bind(fs, 0)
	check := CheckFlags{Caches: 3}
	check.Bind(fs, Caches|Timeout)
	var (
		workload = fs.String("workload", "contended", "contended, producer-consumer, read-mostly, migratory")
		steps    = fs.Int("steps", 50000, "scheduler steps")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	if err := parse(fs, args); err != nil {
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
		// Same exit-code contract as verify and fuzz: an
		// interrupted run is reported, then exits non-zero.
		return fmt.Errorf("simulation canceled after %d of %d steps", st.Steps, *steps)
	}
	return nil
}
