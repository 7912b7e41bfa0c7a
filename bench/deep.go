package main

import (
	"fmt"
	"runtime"
	"time"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/protocols"
	"protogen/internal/verify"
)

// deepWorkload is one exhaustive check of stalling MSI per op: the plain
// configuration (sequential, exact visited set) or the reduced one
// (partial-order reduction, fingerprint table, all cores).
func deepWorkload(name, why string, reduced bool) *workload {
	// Ops of ~2.6 s plain and ~1.0 s reduced: rounds and set-ups are
	// counted so that a run of either fits the same budget.
	setupReps, minRounds, tracedPairs := 1, 8, 2
	if reduced {
		setupReps, minRounds, tracedPairs = 3, 16, 3
	}
	return &workload{
		name:        name,
		why:         why,
		setupReps:   setupReps,
		minRounds:   minRounds,
		tracedPairs: tracedPairs,
		tailPct:     50, // 8 to 20 samples a run support no tail
		gcBeforeOp:  true,
		setup: func(e *env, rec *recorder) (instance, error) {
			spec, err := dsl.Parse(protocols.MSI)
			if err != nil {
				return nil, err
			}
			p, err := core.Generate(spec, core.StallingOpts())
			if err != nil {
				return nil, err
			}
			cfg := verify.DefaultConfig()
			cfg.Caches, cfg.Values, cfg.Parallelism = e.sz.deepCaches, 1, 1
			if reduced {
				cfg.Reduce, cfg.Fingerprint, cfg.Parallelism = true, true, 0
			}
			d := &deep{name: name, e: e, p: p, cfg: cfg}
			// The warm-up op runs at the other Parallelism setting and must
			// hit the same pins: the exact-count guard between 1 and 0.
			rec.check(d.checked(verify.Check(p, otherParallelism(cfg))))
			return d, nil
		},
	}
}

// otherParallelism turns a sequential configuration into an all-cores one
// and the reverse.
func otherParallelism(cfg verify.Config) verify.Config {
	if cfg.Parallelism == 1 {
		cfg.Parallelism = 0
	} else {
		cfg.Parallelism = 1
	}
	return cfg
}

type deep struct {
	name string
	e    *env
	p    *ir.Protocol
	cfg  verify.Config
}

func (d *deep) round(_ int, rec *recorder) {
	rec.op(func(op int) error {
		sp := rec.tr.begin("verify.Check", op)
		res := verify.Check(d.p, d.cfg)
		rec.tr.end(sp)
		sp = rec.tr.begin("bench.check", op)
		defer rec.tr.end(sp)
		return d.checked(res)
	})
}

// checked compares a result of the workload's configuration, at either
// Parallelism, with the answers.
func (d *deep) checked(res *verify.Result) error {
	if err := d.e.book.verdict("registry", "MSI", res.OK() && res.Complete); err != nil {
		return err
	}
	if len(res.ReduceUnsafe) > 0 {
		return fmt.Errorf("%s: reduction fell back to full exploration: %v", d.name, res.ReduceUnsafe)
	}
	return d.e.book.pinAll(d.name,
		"states", res.States, "edges", res.Edges, "depth", res.Depth,
		"reduced_states", res.ReducedStates, "candidate_succs", res.CandidateSuccs,
		"emitted_succs", res.EmittedSuccs, "fused_steps", res.FusedSteps)
}

// timedCheck runs one collected-before, timed Check.
func (d *deep) timedCheck(cfg verify.Config) (*verify.Result, float64) {
	runtime.GC()
	t0 := time.Now()
	res := verify.Check(d.p, cfg)
	return res, time.Since(t0).Seconds()
}

func (d *deep) layers(rec *recorder, tr *tracer) (map[string]float64, error) {
	// One instrumented run of the workload's own configuration.
	var m0, m1 runtime.MemStats
	var levelMax time.Duration
	cfg := d.cfg
	last := time.Now()
	cfg.Progress = func(verify.Progress) {
		now := time.Now()
		levelMax = max(levelMax, now.Sub(last))
		last = now
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	last = t0
	res := verify.Check(d.p, cfg)
	base := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	rec.check(d.checked(res))

	states := float64(res.States)
	canon := float64(res.CanonFast + res.CanonTieStates + res.CanonFallbacks)
	m := map[string]float64{
		"verify.states":                  states,
		"verify.edges":                   float64(res.Edges),
		"verify.depth":                   float64(res.Depth),
		"verify.states_per_s":            states / base,
		"verify.bytes_per_state":         float64(res.VisitedBytes) / states,
		"verify.allocs_per_state":        float64(m1.Mallocs-m0.Mallocs) / states,
		"verify.level_max_s":             levelMax.Seconds(),
		"verify.fused_steps":             float64(res.FusedSteps),
		"verify.canon_fast_share":        float64(res.CanonFast) / canon,
		"verify.canon_fallbacks":         float64(res.CanonFallbacks),
		"verify.emitted_over_candidates": 1,
		"verify.reduce_ratio":            1,
	}
	if res.CandidateSuccs > 0 {
		m["verify.emitted_over_candidates"] = float64(res.EmittedSuccs) / float64(res.CandidateSuccs)
	}

	// The same exploration with one knob turned each time.
	v := d.cfg
	v.CheckLiveness = false
	_, noLive := d.timedCheck(v)
	m["verify.liveness_s"] = base - noLive

	other, otherT := d.timedCheck(otherParallelism(d.cfg))
	rec.check(d.checked(other))
	if d.cfg.Parallelism == 1 {
		m["verify.pauto_speedup"] = base / otherT
	} else {
		m["verify.pauto_speedup"] = otherT / base
	}

	// Exact and fingerprint visited sets must agree on every count.
	v = d.cfg
	v.Fingerprint = !v.Fingerprint
	flipped, flippedT := d.timedCheck(v)
	rec.check(d.checked(flipped))
	if d.cfg.Fingerprint {
		m["verify.fp_over_exact_s"] = base / flippedT
	} else {
		m["verify.fp_over_exact_s"] = flippedT / base
	}

	if d.cfg.Reduce {
		v = d.cfg
		v.Reduce = false
		full, _ := d.timedCheck(v)
		rec.check(d.e.book.pin("deep-full.states", full.States))
		m["verify.reduce_ratio"] = float64(full.States) / states
	}

	ecfg := engine.Config{Caches: d.cfg.Caches, Capacity: d.cfg.Capacity, Values: d.cfg.Values}
	em, err := engineProbe(d.p, ecfg, d.e.sz.engineSteps, d.e.seed)
	if err != nil {
		return nil, err
	}
	for k, x := range em {
		m[k] = x
	}
	if d.cfg.Fingerprint {
		sm, err := storeProbe(d.e.sz.storeKeys, d.e.seed)
		if err != nil {
			return nil, err
		}
		for k, x := range sm {
			m[k] = x
		}
	}
	return m, nil
}

func (d *deep) close() error { return nil }
