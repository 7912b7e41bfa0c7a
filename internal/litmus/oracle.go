package litmus

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"protogen/internal/ir"
)

// Options configures an oracle run.
type Options struct {
	Caches     int   // composed system size (min: thread count; default 3)
	MaxStates  int   // exhaustive budget per test (default DefaultMaxStates)
	Exhaustive bool  // run the exhaustive explorer
	Runs       int   // randomized sample size (0: skip sampling)
	Seed       int64 // sampling seed
}

// OutcomeRow is one observed outcome with its axiom verdict.
type OutcomeRow struct {
	Outcome string `json:"outcome"`
	Class   string `json:"class"`
	Count   int    `json:"count,omitempty"` // sampled occurrences (0 when exhaustive-only)
}

// Result is one test's oracle verdict under one axiom.
type Result struct {
	Test       string       `json:"test"`
	Doc        string       `json:"doc,omitempty"`
	Axiom      string       `json:"axiom"`
	Exhaustive bool         `json:"exhaustive"`
	Runs       int          `json:"runs,omitempty"`
	States     int          `json:"states,omitempty"` // distinct interleaving states explored
	Complete   bool         `json:"complete"`         // exhaustive search finished within budget
	Outcomes   []OutcomeRow `json:"outcomes"`
	Forbidden  []string     `json:"forbidden,omitempty"` // outcomes violating the axiom
	Relaxed    []string     `json:"relaxed,omitempty"`   // observed relaxations (permitted)
	Unsampled  []string     `json:"unsampled,omitempty"` // exhaustive-only outcomes the sample missed (informational)
	Stuck      []string     `json:"stuck,omitempty"`     // dead-configuration diagnostics
	Err        string       `json:"err,omitempty"`

	// containmentBroken marks a sampled outcome missing from a complete
	// exhaustive set — a harness soundness bug, surfaced through Err.
	containmentBroken bool
}

// Failed reports whether the result is an oracle failure: a forbidden
// outcome was observed, a configuration wedged, sampling escaped the
// exhaustive outcome set (a harness soundness bug), or the run errored.
// An incomplete exhaustive search is NOT a failure — Complete=false
// weakens the verdict from "proven absent" to "not observed", it does
// not invert it.
func (r *Result) Failed() bool {
	return len(r.Forbidden) > 0 || len(r.Stuck) > 0 || r.Err != "" || r.containmentBroken
}

// Report aggregates one oracle run over a suite of tests.
type Report struct {
	Axiom   string   `json:"axiom"`
	Results []Result `json:"results"`
	// Canceled marks a partial run: the context was canceled before
	// every test completed (interrupted tests carry the context error
	// in their Err and an incomplete verdict).
	Canceled bool `json:"canceled,omitempty"`
}

// Summary renders the report as one line for job listings.
func (r *Report) Summary() string {
	var forbidden, relaxed, incomplete int
	for _, res := range r.Results {
		forbidden += len(res.Forbidden)
		relaxed += len(res.Relaxed)
		if !res.Complete {
			incomplete++
		}
	}
	s := fmt.Sprintf("litmus(%s): %d tests, %d failing (%d forbidden outcomes), %d relaxed",
		r.Axiom, len(r.Results), len(r.Failures()), forbidden, relaxed)
	if incomplete > 0 {
		s += fmt.Sprintf(", %d incomplete", incomplete)
	}
	if r.Canceled {
		s += ", canceled"
	}
	return s
}

// Failures returns the failing results.
func (r *Report) Failures() []Result {
	var out []Result
	for _, res := range r.Results {
		if res.Failed() {
			out = append(out, res)
		}
	}
	return out
}

// Progress reports suite progress; it satisfies the root package's
// ProgressEvent interface.
type Progress struct {
	Done      int    // tests finished
	Total     int    // tests in the suite
	Test      string // test just finished
	States    int    // its explored state count
	Forbidden int    // forbidden outcomes observed so far (suite-wide)
}

// Kind labels the event stream.
func (Progress) Kind() string { return "litmus" }

func (p Progress) String() string {
	return fmt.Sprintf("litmus: %d/%d tests (%s: %d states), %d forbidden",
		p.Done, p.Total, p.Test, p.States, p.Forbidden)
}

// RunTest runs one test under one axiom: exhaustive exploration and/or
// randomized sampling per opts, with the agreement check (sampled ⊆
// exhaustive, when both ran and the exhaustive search completed).
func RunTest(ctx context.Context, p *ir.Protocol, t *Test, ax Axiom, opts Options) Result {
	caches := opts.Caches
	if caches < 3 {
		caches = 3
	}
	res := Result{Test: t.Name, Doc: t.Doc, Axiom: string(ax),
		Exhaustive: opts.Exhaustive, Runs: opts.Runs, Complete: !opts.Exhaustive}

	exact := map[string]Outcome{}
	if opts.Exhaustive {
		ex, err := Explore(ctx, p, t, caches, opts.MaxStates)
		if ex != nil {
			res.States = ex.States
			res.Complete = ex.Complete
			res.Stuck = ex.Stuck
			exact = ex.Outcomes
		}
		if err != nil {
			res.Err = err.Error()
			return res
		}
	}

	counts := map[string]int{}
	if opts.Runs > 0 {
		sm, err := Sample(ctx, p, t, caches, opts.Runs, opts.Seed)
		if sm != nil {
			counts = sm.Outcomes
		}
		if err != nil {
			res.Err = err.Error()
			return res
		}
	}

	// Merge: every exhaustive outcome plus every sampled one (identical
	// sets unless containment is broken).
	all := map[string]Outcome{}
	for s, o := range exact {
		all[s] = o
	}
	for s := range counts {
		if _, ok := all[s]; !ok {
			all[s] = parseOutcome(s)
		}
	}
	keys := make([]string, 0, len(all))
	for s := range all {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	for _, s := range keys {
		o := all[s]
		cls := t.Classify(ax, o)
		res.Outcomes = append(res.Outcomes, OutcomeRow{Outcome: s, Class: cls.String(), Count: counts[s]})
		switch cls {
		case Forbidden:
			res.Forbidden = append(res.Forbidden, s)
		case Relaxed:
			res.Relaxed = append(res.Relaxed, s)
		}
	}

	if opts.Exhaustive && res.Complete {
		for s := range counts {
			if _, ok := exact[s]; !ok {
				res.containmentBroken = true
				res.Err = fmt.Sprintf("sampled outcome {%s} not in complete exhaustive set — harness soundness bug", s)
				break
			}
		}
		if opts.Runs > 0 && !res.containmentBroken {
			for s := range exact {
				if counts[s] == 0 {
					res.Unsampled = append(res.Unsampled, s)
				}
			}
			sort.Strings(res.Unsampled)
		}
	}
	return res
}

// RunSuite runs every test in the suite under ax, in order. The
// progress callback (may be nil) receives one event per finished test
// and must return promptly. Parallelism lives above the suite: the
// service runs jobs side by side, the fuzz campaign runs seeds side by
// side.
func RunSuite(ctx context.Context, p *ir.Protocol, tests []*Test, ax Axiom, opts Options, progress func(Progress)) *Report {
	rep := &Report{Axiom: string(ax), Results: make([]Result, len(tests))}
	forbidden := 0
	for i, t := range tests {
		r := RunTest(ctx, p, t, ax, opts)
		rep.Results[i] = r
		forbidden += len(r.Forbidden)
		if progress != nil {
			progress(Progress{Done: i + 1, Total: len(tests), Test: r.Test,
				States: r.States, Forbidden: forbidden})
		}
	}
	rep.Canceled = ctx.Err() != nil
	return rep
}

// parseOutcome inverts Outcome.String for sampled outcomes absent from
// the exhaustive set (only needed on the containment-violation path).
func parseOutcome(s string) Outcome {
	o := Outcome{}
	for _, field := range strings.Fields(s) {
		if eq := strings.IndexByte(field, '='); eq > 0 {
			v, err := strconv.Atoi(field[eq+1:])
			if err == nil {
				o[field[:eq]] = v
			}
		}
	}
	return o
}
