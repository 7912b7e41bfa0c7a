// Package sim executes generated protocols under randomized schedules:
// workload-driven performance comparison (stall counts, message counts,
// transaction latency — quantifying the paper's "reduce stalling" claim)
// and a per-location sequential-consistency history checker. The core-side
// step rules it schedules with (System.TryHit, System.Accepts) live in
// internal/engine; litmus testing lives in internal/litmus.
package sim

import (
	"context"
	"fmt"
	"math/rand"

	"protogen/internal/engine"
	"protogen/internal/ir"
)

// Stats aggregates one simulation run.
type Stats struct {
	Steps        int
	Deliveries   int
	StallEvents  int // delivery attempts blocked by a stalling controller
	Hits         int // accesses satisfied locally
	Transactions int // completed coherence transactions
	TotalLatency int // sum of transaction latencies (in steps)
	MaxLatency   int
	SCViolations int
	// Canceled marks a partial run: the context given to RunCtx was
	// canceled before the step budget was spent. The stats cover the
	// steps that did run.
	Canceled bool
}

// AvgLatency is the mean transaction latency in scheduler steps.
func (s Stats) AvgLatency() float64 {
	if s.Transactions == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Transactions)
}

func (s Stats) String() string {
	return fmt.Sprintf("steps=%d deliveries=%d stalls=%d hits=%d txns=%d avgLat=%.1f maxLat=%d",
		s.Steps, s.Deliveries, s.StallEvents, s.Hits, s.Transactions, s.AvgLatency(), s.MaxLatency)
}

// Config tunes a run.
type Config struct {
	Caches   int
	Steps    int
	Seed     int64
	Workload Workload
	// Progress, when non-nil, is called every progressStride steps with
	// a snapshot of the run so far. It runs on the scheduler goroutine
	// and must return promptly; nil costs nothing on the step loop's hot
	// path beyond the cancellation stride check.
	Progress func(Progress)
}

// Progress is one snapshot of a running simulation.
type Progress struct {
	Steps        int // scheduler steps executed
	TotalSteps   int // configured step budget
	Transactions int // coherence transactions completed so far
}

// Kind identifies the job a progress event belongs to.
func (Progress) Kind() string { return "simulate" }

func (p Progress) String() string {
	return fmt.Sprintf("simulate: step %d/%d, %d transactions", p.Steps, p.TotalSteps, p.Transactions)
}

const (
	// cancelStride is how many scheduler steps run between context
	// checks: coarse enough to keep ctx.Err() off the per-step profile,
	// fine enough that cancellation lands in microseconds.
	cancelStride   = 256
	progressStride = 10_000 // scheduler steps between Progress calls
	capacity       = 8      // every channel's bound
)

// Run drives one protocol under a workload for cfg.Steps scheduler steps.
// The per-location SC checker observes every load and store. It is
// RunCtx without cancellation.
func Run(p *ir.Protocol, cfg Config) (Stats, error) {
	return RunCtx(context.Background(), p, cfg)
}

// RunCtx drives one protocol under ctx. Cancellation is observed every
// cancelStride steps of the scheduler loop; a canceled run returns the
// partial Stats accumulated so far with Stats.Canceled set and a nil
// error (cancellation is an outcome, not a failure).
func RunCtx(ctx context.Context, p *ir.Protocol, cfg Config) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sys := engine.NewSystem(p, engine.Config{
		Caches:   cfg.Caches,
		Capacity: capacity,
		Values:   1 << 30, // monotonic values: exact per-location SC checking
	})
	rng := rand.New(rand.NewSource(cfg.Seed))
	var st Stats
	sc := newSCChecker(cfg.Caches)
	wedged := 0                                  // consecutive steps with nothing runnable but messages in flight
	pending := make([]ir.AccessType, cfg.Caches) // desired next access per cache
	started := make([]int, cfg.Caches)           // txn start step (-1 = idle)
	for i := range started {
		started[i] = -1
	}
	// Scratch reused across steps (the checker's allocation-free discipline
	// applies here too: the scheduler loop runs millions of steps).
	var dels []engine.Deliverable
	var rules []engine.Rule

	for step := 0; step < cfg.Steps; step++ {
		if step%cancelStride == 0 && ctx.Err() != nil {
			st.Canceled = true
			return st, nil
		}
		if cfg.Progress != nil && step > 0 && step%progressStride == 0 {
			cfg.Progress(Progress{Steps: step, TotalSteps: cfg.Steps, Transactions: st.Transactions})
		}
		st.Steps++
		// Count blocked deliveries: messages whose head-of-queue target
		// stalls them this step.
		dels = sys.Net.AppendDeliverables(dels[:0])
		for _, d := range dels {
			if !sys.Accepts(d) {
				st.StallEvents++
			}
		}

		// progressed records whether any cache consumed a workload item
		// this step (a local hit or a no-op skip): if so, the next step
		// can see a different access mix even without a rule firing.
		progressed := false
		rules = rules[:0]
		for i := 0; i < cfg.Caches; i++ {
			if started[i] >= 0 {
				continue // transaction in flight
			}
			if pending[i] == ir.AccessNone {
				pending[i] = cfg.Workload.Next(i, rng)
			}
			a := pending[i]
			if a == ir.AccessNone {
				continue
			}
			c := sys.Caches[i]
			stt := sys.P.Cache.State(c.State)
			if stt == nil || stt.Kind != ir.Stable {
				continue
			}
			if len(sys.P.Cache.Find(c.State, ir.AccessEvent(a))) == 0 {
				// The access is a no-op here (e.g. replacing an Invalid
				// block); skip to the next workload item.
				pending[i] = ir.AccessNone
				progressed = true
				continue
			}
			if done, val := sys.TryHit(i, a); done {
				st.Hits++
				if a == ir.AccessLoad {
					if !sc.observeLoad(i, val) {
						st.SCViolations++
					}
				}
				if a == ir.AccessStore {
					sc.observeStore(i, sys.LastWrite)
				}
				pending[i] = ir.AccessNone
				progressed = true
				continue
			}
			rules = append(rules, engine.Rule{Kind: engine.RuleAccess, Cache: i, Access: a})
		}
		// Re-enumerate: TryHit may have applied rules that sent messages
		// since the stall-count snapshot above.
		dels = sys.Net.AppendDeliverables(dels[:0])
		for _, d := range dels {
			if sys.Accepts(d) {
				rules = append(rules, engine.Rule{Kind: engine.RuleDeliver, Del: d})
			}
		}
		if len(rules) == 0 {
			// No rule can fire. With messages in flight and no workload
			// progress this step, only a cache that happened to draw
			// AccessNone could still enable a rule on a later draw — so
			// require the wedge to persist before declaring deadlock
			// (the shipped workloads never idle, but the Workload
			// interface permits it). The run used to spin here until the
			// step budget ran out, inflating Steps and StallEvents with
			// the same blocked deliveries every step.
			const wedgedLimit = 64
			if inFlight := sys.Net.InFlight(); inFlight > 0 && !progressed {
				if wedged++; wedged >= wedgedLimit {
					return st, fmt.Errorf("deadlock at step %d: no enabled rules with %d messages in flight (%d transactions outstanding)",
						step, inFlight, outstanding(started))
				}
			} else {
				wedged = 0
			}
			continue // fully quiescent and idle
		}
		wedged = 0
		r := rules[rng.Intn(len(rules))]
		performs, err := sys.Apply(r)
		if err != nil {
			return st, fmt.Errorf("step %d (%s): %w", step, r, err)
		}
		if r.Kind == engine.RuleAccess {
			started[r.Cache] = step
			pending[r.Cache] = ir.AccessNone
		} else {
			st.Deliveries++
		}
		for _, pf := range performs {
			switch pf.Access {
			case ir.AccessLoad:
				if !sc.observeLoad(pf.Node, pf.Value) {
					st.SCViolations++
				}
			case ir.AccessStore:
				sc.observeStore(pf.Node, pf.Value)
			}
		}
		// Transaction completions: a cache back in a stable state.
		for i := 0; i < cfg.Caches; i++ {
			if started[i] < 0 {
				continue
			}
			stt := sys.P.Cache.State(sys.Caches[i].State)
			if stt != nil && stt.Kind == ir.Stable {
				lat := step - started[i]
				st.Transactions++
				st.TotalLatency += lat
				if lat > st.MaxLatency {
					st.MaxLatency = lat
				}
				started[i] = -1
			}
		}
	}
	return st, nil
}

// outstanding counts caches with a transaction in flight.
func outstanding(started []int) int {
	n := 0
	for _, s := range started {
		if s >= 0 {
			n++
		}
	}
	return n
}

// scChecker verifies per-location sequential consistency over one block:
// stores are totally ordered by their (monotonic) values; every cache's
// observations (its loads and its own stores) must be non-decreasing.
type scChecker struct {
	lastSeen []int
}

func newSCChecker(n int) *scChecker {
	return &scChecker{lastSeen: make([]int, n)}
}

func (s *scChecker) observeLoad(cache, val int) bool {
	if val < s.lastSeen[cache] {
		return false // time travel: saw a newer value before this older one
	}
	s.lastSeen[cache] = val
	return true
}

func (s *scChecker) observeStore(cache, val int) {
	if val > s.lastSeen[cache] {
		s.lastSeen[cache] = val
	}
}
