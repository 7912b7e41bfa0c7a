package main

import (
	"fmt"
	"runtime"
	"time"
)

// sizes scales every workload and probe. The benchmark runs at fullSizes.
// smallSizes serves the self-test and the traced run, which measures the
// layers its own workload does not drive at this size, so that every
// per-layer metric in its output is a reading and none a placeholder.
type sizes struct {
	name string // selects the pins in answers.json

	deepCaches int // caches in the deep-* state space

	campaignFamilies []string // fuzz families per campaign round, one seed each (nil = all shipped)
	campaignWarmup   int      // warm-up seeds in set-up
	sampleRuns       int      // litmus.Sample schedules
	simSteps         int

	serviceProtocols int // registry protocols in the job mix
	serviceBlock     int // jobs per round; the mix is exact within a block
	serviceWarmJobs  int // burst at the end of set-up
	probeRequests    int // repetitions in the cache, store and bus probes
	walReplay        int // records in the WAL replay probe

	generateSubset bool // three SSP texts per sweep instead of all
	generateWarmup int  // warm-up sweeps in set-up

	engineSteps int // random-walk steps in the engine probe
	storeKeys   int // fingerprints in the store probe
}

var fullSizes = sizes{
	name:       "full",
	deepCaches: 3,

	campaignWarmup: 4,
	sampleRuns:     2000,
	simSteps:       50_000,

	serviceProtocols: 5,
	serviceBlock:     1000,
	serviceWarmJobs:  200,
	probeRequests:    2000,
	walReplay:        10_000,

	generateWarmup: 8,

	engineSteps: 200_000,
	storeKeys:   1_000_000,
}

var smallSizes = sizes{
	name:       "small",
	deepCaches: 2,

	campaignFamilies: []string{"FZ_MI"},
	campaignWarmup:   1,
	sampleRuns:       50,
	simSteps:         2000,

	serviceProtocols: 1,
	serviceBlock:     20,
	serviceWarmJobs:  0,
	probeRequests:    50,
	walReplay:        200,

	generateSubset: true,
	generateWarmup: 1,

	engineSteps: 5000,
	storeKeys:   20_000,
}

// env is what a workload's set-up is given.
type env struct {
	seed int64
	sz   sizes
	book *book
	dir  string // scratch directory inside the checkout
}

// workload is one closed-loop input set. Its ops run in rounds of fixed
// composition — every round holds the same multiset of inputs, only their
// order and seeds vary with -seed — and the measured window ends on a
// round boundary, so two runs always time the same mix however many
// rounds fit.
type workload struct {
	name string
	why  string

	// setupReps is how many times a run sets up; setup_s is the median.
	// Set-up includes the stated warm-up ops.
	setupReps int
	// minRounds keeps the sample count from falling below what
	// verdict_s needs when ops are seconds long.
	minRounds int
	// tracedPairs is how many (untraced, traced) round pairs the traced
	// run times for trace.overhead_share.
	tracedPairs int
	// tailPct is the percentile verdict_tail_s reports: the highest one
	// this workload's sample count leaves ten samples beyond, the median
	// where it supports none.
	tailPct float64
	// gcBeforeOp collects garbage, untimed, before each op.
	gcBeforeOp bool

	setup func(e *env, rec *recorder) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// round runs the i-th batch of ops through rec.
	round(i int, rec *recorder)
	// layers returns the per-layer metrics of the layers this workload
	// drives, from the spans its traced rounds left in tr and from layer
	// probes. Traced run only.
	layers(rec *recorder, tr *tracer) (map[string]float64, error)
	close() error
}

// recorder counts and times ops. An op fails if it errors or its output
// differs from the answers; failed ops stay in every statistic.
type recorder struct {
	samples   []float64 // seconds per op
	attempted int
	failed    int
	errs      []string // the first few failures, for the report

	tr *tracer // nil: untraced
	gc bool
}

const maxReportedErrs = 5

// op times fn as one op. fn gets the op's span to parent its own under.
func (r *recorder) op(fn func(op int) error) {
	if r.gc {
		runtime.GC()
	}
	sp := r.tr.begin("op", -1)
	t0 := time.Now()
	err := fn(sp)
	dt := time.Since(t0)
	r.tr.end(sp)
	r.samples = append(r.samples, dt.Seconds())
	r.check(err)
}

// check counts an untimed op: a warm-up op or a probe's answer check.
func (r *recorder) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < maxReportedErrs {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// absorb folds a per-client recorder into r.
func (r *recorder) absorb(o *recorder) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < maxReportedErrs {
			r.errs = append(r.errs, e)
		}
	}
	if r.tr != nil && o.tr != nil {
		r.tr.merge(o.tr)
	}
}

// absorbUntimed folds in o's counts and drops its samples: warm-up ops and
// probe bursts are checked, not timed.
func (r *recorder) absorbUntimed(o *recorder) {
	o.samples = nil
	r.absorb(o)
}

// outcome is one run of one workload.
type outcome struct {
	metrics   map[string]float64
	samples   int // timed ops behind verdict_s
	attempted int
	failed    int
	errs      []string
}

// runUntraced sets the workload up, runs rounds for the given number of
// seconds and returns the end-to-end metrics.
func runUntraced(w *workload, e *env, seconds float64) (*outcome, error) {
	rec := &recorder{}
	var inst instance
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e, rec); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rec.gc = w.gcBeforeOp
	// The collector's timing moves a Go process's high-water mark by a
	// tenth and more from run to run, and restarting the mark each round
	// (/proc/self/clear_refs) slowed generate-sweep's ops by a tenth. The
	// runtime holds on to a round's heap past the round's end, so the
	// resident set read there tracks the round's peak; rss_mb is the
	// median of those readings.
	var resident []float64
	start := time.Now()
	for i := 0; i < w.minRounds || time.Since(start).Seconds() < seconds; i++ {
		inst.round(i, rec)
		rss, err := rssMB()
		if err != nil {
			return nil, err
		}
		resident = append(resident, rss)
	}
	window := time.Since(start).Seconds()
	if err := inst.close(); err != nil {
		return nil, err
	}
	return &outcome{
		metrics: map[string]float64{
			"setup_s":        median(setups),
			"verdict_s":      median(rec.samples),
			"verdict_tail_s": percentile(rec.samples, w.tailPct),
			"ops_per_s":      float64(len(rec.samples)) / window,
			"rss_mb":         median(resident),
		},
		samples:   len(rec.samples),
		attempted: rec.attempted,
		failed:    rec.failed,
		errs:      rec.errs,
	}, nil
}

// runTraced is the separate traced run: it alternates untraced and traced
// rounds of w, takes w's layer metrics from the spans and probes, then
// measures every remaining layer by running the other workloads once at
// smallSizes. The trace of w's ops is written to tracePath.
func runTraced(w *workload, e *env, tracePath string) (*outcome, error) {
	rec := &recorder{}
	tr := newTracer(time.Now())
	m, untraced, traced, err := tracedLayers(w, e, rec, tr, w.tracedPairs)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_share"] = median(traced)/median(untraced) - 1
	if err := writeTrace(tracePath, traceFile{Workload: w.name, Seed: e.seed, Layers: layerStats(tr.spans), Spans: tr.spans}); err != nil {
		return nil, err
	}

	small := *e
	small.sz = smallSizes
	small.book = newBook(e.book.ans, smallSizes.name)
	fill := map[string]float64{}
	for _, v := range workloads() {
		if v.name == w.name {
			continue
		}
		mv, _, _, err := tracedLayers(v, &small, rec, newTracer(time.Now()), 1)
		if err != nil {
			return nil, err
		}
		// Both deep-* workloads read the verify and engine layers; the
		// later one, deep-reduced, also drives store and the reduction.
		for k, x := range mv {
			fill[k] = x
		}
	}
	for k, x := range fill {
		if _, own := m[k]; !own {
			m[k] = x
		}
	}
	return &outcome{metrics: m, samples: len(traced), attempted: rec.attempted, failed: rec.failed, errs: rec.errs}, nil
}

// tracedLayers sets w up once, runs pairs of (untraced, traced) rounds and
// returns w's layer metrics with the two sample sets.
func tracedLayers(w *workload, e *env, rec *recorder, tr *tracer, pairs int) (m map[string]float64, untraced, traced []float64, err error) {
	inst, err := w.setup(e, rec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	rec.gc = w.gcBeforeOp
	// Which half of a pair goes first alternates, so that a workload whose
	// rounds slow down as its state grows charges that to neither half.
	for i := 0; i < 2*pairs; i++ {
		n := len(rec.samples)
		if tracedRound := i%2 == (i/2)%2; tracedRound {
			rec.tr = tr
			inst.round(i, rec)
			traced = append(traced, rec.samples[n:]...)
		} else {
			rec.tr = nil
			inst.round(i, rec)
			untraced = append(untraced, rec.samples[n:]...)
		}
	}
	rec.tr, rec.gc = nil, false
	m, err = inst.layers(rec, tr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s layers: %w", w.name, err)
	}
	return m, untraced, traced, nil
}
