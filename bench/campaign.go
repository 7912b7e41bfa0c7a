package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/fuzz"
	"protogen/internal/litmus"
	"protogen/internal/protocols"
	"protogen/internal/sim"
)

// campaignWorkload runs the differential fuzz oracle one seed per op.
func campaignWorkload() *workload {
	return &workload{
		name: "campaign",
		why: "many small specs through dsl, core, analyze, three 2-cache checks, the POR recheck, litmus and sim: " +
			"the oracle plumbing and litmus cost show here and nowhere else",
		setupReps:   1,
		minRounds:   1,
		tracedPairs: 1,
		tailPct:     75, // ~56 samples a run: fourteen lie beyond p75
		setup:       setupCampaign,
	}
}

// stratum is one (family, pending limit) pair. A campaign seed decides
// both, and a seed's cost depends on both (30 ms for MI, 600 ms for MOSI
// with upgrades), so a round takes one seed of each stratum: the mix is
// the same whatever -seed is, and only the seeds themselves differ.
type stratum struct {
	family string
	limit  int
}

type campaign struct {
	e      *env
	cfg    fuzz.Config
	strata []stratum
	// Seeds are scanned upwards from 1000×seed and queued by stratum.
	scan   uint64
	queued map[stratum][]uint64

	roundS []float64 // seconds per round, for the dimension shares
	// From traced ops.
	ranChecks, cachedChecks, tracedSeeds int
}

func setupCampaign(e *env, rec *recorder) (instance, error) {
	cfg := fuzz.DefaultConfig()
	cfg.Parallelism = 1
	cfg.Shrink = false // nothing fails, so nothing would be shrunk
	c := &campaign{e: e, cfg: cfg, scan: uint64(1000 * e.seed), queued: map[stratum][]uint64{}}
	families := e.sz.campaignFamilies
	if families == nil {
		families = fuzz.FamilyNames()
	}
	for i, f := range families {
		c.strata = append(c.strata, stratum{f, 1 + i%3})
	}

	// The oracle must still catch every planted bug of the corpus.
	corpus, err := fuzz.Corpus()
	if err != nil {
		return nil, err
	}
	for _, entry := range corpus {
		r := fuzz.CheckSource(entry.Source, 1, entry.ReplaySimSeed(), cfg)
		rec.check(e.book.verdict("corpus", entry.Name, r.Failure.Class))
	}
	for i := 0; i < e.sz.campaignWarmup; i++ {
		rec.check(c.seed(c.strata[i%len(c.strata)], c.cfg, nil, -1))
	}
	return c, nil
}

// take returns the next unused campaign seed that maps to st.
func (c *campaign) take(st stratum) uint64 {
	for len(c.queued[st]) == 0 {
		shape, limit, _ := fuzz.SpecForSeed(c.scan, nil)
		got := stratum{shape.Name(), limit}
		c.queued[got] = append(c.queued[got], c.scan)
		c.scan++
	}
	s := c.queued[st][0]
	c.queued[st] = c.queued[st][1:]
	return s
}

// seed runs the oracle on one seed of st and checks the known answer:
// shipped families pass on every verdict dimension.
func (c *campaign) seed(st stratum, cfg fuzz.Config, tr *tracer, op int) error {
	s := c.take(st)
	sp := tr.begin("fuzz.RunCtx", op)
	rep, err := fuzz.RunCtx(context.Background(), s, s+1, cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(rep.Specs) != 1 || rep.Specs[0].Family != st.family || rep.Specs[0].PendingLimit != st.limit {
		return fmt.Errorf("seed %d: not the %v spec", s, st)
	}
	r := rep.Specs[0]
	if !r.OK() || rep.Fail != 0 {
		return fmt.Errorf("seed %d (%s): %s", s, st.family, r.Failure)
	}
	if len(r.Modes) != len(fuzz.Modes) ||
		(!cfg.NoLint && r.Lint == "") || (!cfg.NoLitmus && r.Litmus != "clean") ||
		(!cfg.NoPOR && r.POR != "clean") || (cfg.SimSteps > 0 && r.SimStats == "") {
		return fmt.Errorf("seed %d (%s): a verdict dimension did not run: lint=%q litmus=%q por=%q sim=%q",
			s, st.family, r.Lint, r.Litmus, r.POR, r.SimStats)
	}
	if tr != nil {
		c.ranChecks += rep.RanChecks
		c.cachedChecks += rep.CachedChecks
		c.tracedSeeds++
	}
	return nil
}

func (c *campaign) round(i int, rec *recorder) {
	order := rand.New(rand.NewSource(c.e.seed + int64(i))).Perm(len(c.strata))
	t0 := time.Now()
	for _, j := range order {
		rec.op(func(op int) error { return c.seed(c.strata[j], c.cfg, rec.tr, op) })
	}
	c.roundS = append(c.roundS, time.Since(t0).Seconds())
}

func (c *campaign) layers(rec *recorder, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{
		"fuzz.seed_s":        median(durations(tr.spans, "fuzz.RunCtx")),
		"fuzz.ran_checks":    float64(c.ranChecks) / float64(c.tracedSeeds),
		"fuzz.cached_checks": float64(c.cachedChecks) / float64(c.tracedSeeds),
	}

	// A dimension's share is what a round saves with that dimension off.
	base := median(c.roundS)
	knobs := []struct {
		name string
		off  func(*fuzz.Config)
	}{
		{"litmus", func(f *fuzz.Config) { f.NoLitmus = true }},
		{"por", func(f *fuzz.Config) { f.NoPOR = true }},
		{"lint", func(f *fuzz.Config) { f.NoLint = true }},
		{"sim", func(f *fuzz.Config) { f.SimSteps = 0 }},
	}
	for _, k := range knobs {
		cfg := c.cfg
		k.off(&cfg)
		t0 := time.Now()
		for _, st := range c.strata {
			rec.check(c.seed(st, cfg, nil, -1))
		}
		m["fuzz.share."+k.name] = 1 - time.Since(t0).Seconds()/base
	}

	// The litmus explorer and the simulator on their own, as the campaign
	// calls them: 2 caches, the non-stalling design.
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		return nil, err
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var suiteS []float64
	states := 0
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		rep := litmus.RunSuite(ctx, p, litmus.QuickSuite(), litmus.DefaultAxiom(p), litmus.Options{Caches: 2, Exhaustive: true}, nil)
		suiteS = append(suiteS, time.Since(t0).Seconds())
		states = 0
		for _, r := range rep.Results {
			states += r.States
		}
		if len(rep.Failures()) > 0 {
			rec.check(fmt.Errorf("litmus suite on MSI: %s", rep.Summary()))
		}
	}
	rec.check(c.e.book.pin("litmus.states", states))
	m["litmus.suite_s"] = median(suiteS)
	m["litmus.states"] = float64(states)
	m["litmus.states_per_s"] = float64(states) / median(suiteS)

	t0 := time.Now()
	sampled, err := litmus.Sample(ctx, p, litmus.MP(false), 2, c.e.sz.sampleRuns, c.e.seed)
	if err != nil {
		return nil, err
	}
	m["litmus.sample_runs_per_s"] = float64(sampled.Runs) / time.Since(t0).Seconds()

	t0 = time.Now()
	st, err := sim.Run(p, sim.Config{Caches: 2, Steps: c.e.sz.simSteps, Seed: c.e.seed, Workload: sim.Contended{}})
	if err != nil {
		return nil, err
	}
	m["sim.steps_per_s"] = float64(st.Steps) / time.Since(t0).Seconds()
	if st.SCViolations != 0 {
		rec.check(fmt.Errorf("sim on MSI: %d SC violations", st.SCViolations))
	}
	return m, nil
}

func (c *campaign) close() error { return nil }
