package verify

// Witness traces are executions, and they do not move.
//
// Two pins over the same failing configurations (the fuzz corpus
// reproducers and the no-invalidate MSI, every generation mode, 2 and 3
// caches; the stuck mutants of liveness_test.go at 2 caches; reduction on
// and off, Parallelism 1 and 4):
//
//   - TestWitnessGolden holds a digest of every violation's
//     Kind|Detail|Trace against testdata/witness.golden. Traces are rule
//     labels enumerated on the concrete state each parent was stored in,
//     so the digest moves if the checker ever expands a state in another
//     frame (a canonical representative, a re-ordered bag) than the one
//     it discovered.
//   - TestWitnessReplay re-executes every trace from engine.NewSystem,
//     one enabled rule per label, and asserts the end state shows the
//     reported violation by the checker's own predicate.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

const witnessGolden = "testdata/witness.golden"

// witnessCase is one (source, mode, caches, reduce) configuration; its
// name is the golden file's key.
type witnessCase struct {
	name string
	p    *ir.Protocol
	cfg  Config
}

// witnessCases builds the configurations both tests run over. -short
// keeps the 2-cache half.
func witnessCases(t *testing.T) []witnessCase {
	t.Helper()
	type source struct{ name, text string }
	files, err := filepath.Glob("../fuzz/corpus/*.ssp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus reproducers found: %v", err)
	}
	sort.Strings(files)
	var sources []source
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{strings.TrimSuffix(filepath.Base(f), ".ssp"), string(b)})
	}
	broken := strings.Replace(protocols.MSI,
		"send Inv to sharers except src req src;\n    owner = src;",
		"owner = src;", 1)
	if broken == protocols.MSI {
		t.Fatal("sabotage substitution failed")
	}
	sources = append(sources, source{"MSI_no_invalidate", broken})

	cacheCounts := []int{2, 3}
	if testing.Short() {
		cacheCounts = []int{2}
	}
	var out []witnessCase
	for _, src := range sources {
		spec, err := dsl.Parse(src.text)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		for _, mode := range []string{"stalling", "nonstalling", "deferred"} {
			opts, err := core.OptionsForMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			opts.PendingLimit = 1 // the limit the corpus replays under
			p, err := core.Generate(spec, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", src.name, mode, err)
			}
			for _, caches := range cacheCounts {
				for _, reduce := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.Caches, cfg.Reduce = caches, reduce
					// Several violations per run pin their order too; the
					// cap bounds the configurations that pass.
					cfg.MaxViolations, cfg.MaxStates = 3, 60_000
					out = append(out, witnessCase{
						name: fmt.Sprintf("%s/%s/caches=%d/reduce=%t", src.name, mode, caches, reduce),
						p:    p,
						cfg:  cfg,
					})
				}
			}
		}
	}
	// The stuck mutants (liveness_test.go) at 2 caches: the only
	// configurations whose witness is a stuck one.
	for _, m := range stuckMutants {
		p := m.build(t)
		for _, reduce := range []bool{false, true} {
			cfg := QuickConfig()
			cfg.Reduce = reduce
			out = append(out, witnessCase{
				name: fmt.Sprintf("%s/%s/caches=2/reduce=%t", m.name, m.mode, reduce),
				p:    p,
				cfg:  cfg,
			})
		}
	}
	return out
}

// witnessLine renders one configuration's golden line: a digest of every
// violation's Kind|Detail|Trace, then the first violation in the clear.
func witnessLine(name string, r *Result) string {
	h := sha256.New()
	for _, v := range r.Violations {
		fmt.Fprintf(h, "%s|%s|%s\n", v.Kind, v.Detail, strings.Join(v.Trace, "\n"))
	}
	first := "PASS"
	if len(r.Violations) > 0 {
		v := r.Violations[0]
		first = fmt.Sprintf("%s (trace %d): %s", v.Kind, len(v.Trace), v.Detail)
	}
	return fmt.Sprintf("%s %x %d %s", name, h.Sum(nil)[:8], len(r.Violations), first)
}

// TestWitnessGolden: Kind, Detail and the full witness trace of every
// violation are byte-identical to the recorded run, at Parallelism 1 and
// 4. A run holds at most MaxViolations of them, and they are the first
// ones a run with twice the cap reports: the cap cuts the list where it
// is reached, even inside one state's successors, and never reorders
// it. A missing golden file is recorded from this run (and the test
// fails, so a recording is never mistaken for a pass).
func TestWitnessGolden(t *testing.T) {
	want := map[string]string{}
	data, err := os.ReadFile(witnessGolden)
	record := os.IsNotExist(err)
	if err != nil && !record {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok {
			want[name] = line
		}
	}
	var lines []string
	failing := 0
	for _, wc := range witnessCases(t) {
		cfg := wc.cfg
		cfg.Parallelism = 1
		res := Check(wc.p, cfg)
		line := witnessLine(wc.name, res)
		if limit := max(1, cfg.MaxViolations); len(res.Violations) > limit {
			t.Errorf("%s: %d violations, over the cap of %d", wc.name, len(res.Violations), limit)
		} else if len(res.Violations) == limit {
			wide := cfg
			wide.MaxViolations = 2 * limit
			if more := Check(wc.p, wide).Violations; len(more) < limit || !reflect.DeepEqual(res.Violations, more[:limit]) {
				t.Errorf("%s: the %d violations are not the first of the %d a cap of %d reports", wc.name, limit, len(more), wide.MaxViolations)
			}
		}
		cfg.Parallelism = 4
		if p4 := witnessLine(wc.name, Check(wc.p, cfg)); p4 != line {
			t.Errorf("Parallelism 4 moved the witness:\n  P1: %s\n  P4: %s", line, p4)
		}
		if !strings.HasSuffix(line, " PASS") {
			failing++
		}
		lines = append(lines, line)
		if !record && line != want[wc.name] {
			t.Errorf("witness moved:\n  got:  %s\n  want: %s", line, want[wc.name])
		}
	}
	if failing < len(lines)/2 {
		t.Errorf("only %d of %d configurations fail: the sweep pins fewer witnesses than it claims", failing, len(lines))
	}
	if record {
		if testing.Short() {
			t.Fatalf("%s is missing; record it with a full (non -short) run", witnessGolden)
		}
		if err := os.MkdirAll(filepath.Dir(witnessGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(witnessGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d configurations into %s; run again to compare", len(lines), witnessGolden)
	}
}

// replayWitness re-executes one violation's trace from the initial state
// — each label names exactly one enabled rule (fused labels several, in
// order) — and fails unless the end of the execution shows the violation.
func replayWitness(t *testing.T, name string, p *ir.Protocol, cfg Config, v Violation) {
	t.Helper()
	sys := engine.NewSystem(p, engine.Config{Caches: cfg.Caches, Capacity: cfg.Capacity, Values: cfg.Values})
	var lastErr error
	var badLoads []string // what the last label's performed loads would be reported as
	for li, label := range v.Trace {
		badLoads = badLoads[:0]
		for _, part := range strings.Split(label, " ; ") {
			if lastErr != nil {
				t.Fatalf("%s: trace continues past the failing rule at step %d (%q)", name, li, label)
			}
			var rule *engine.Rule
			for _, r := range sys.Rules() {
				if r.String() == part {
					rule = &r
					break
				}
			}
			if rule == nil {
				t.Fatalf("%s: step %d of %d: no enabled rule is labelled %q — the trace is not an execution", name, li, len(v.Trace), part)
			}
			performs, err := sys.Apply(*rule)
			lastErr = err
			for _, pf := range performs {
				if pf.Access == ir.AccessLoad && !pf.Exempt && pf.Value != sys.LastWrite {
					badLoads = append(badLoads, fmt.Sprintf("cache %d load returned %d, last write is %d", pf.Node, pf.Value, sys.LastWrite))
				}
			}
		}
	}
	if lastErr != nil && v.Kind != "error" {
		t.Fatalf("%s: replaying the %s witness failed: %v", name, v.Kind, lastErr)
	}
	contains := func(details []string) bool {
		for _, d := range details {
			if d == v.Detail {
				return true
			}
		}
		return false
	}
	c := &checker{cfg: cfg, p: p}
	c.classifyPermissions()
	var onState []string
	for _, f := range (&worker{c: c}).checkState(sys) {
		if f.kind == v.Kind {
			onState = append(onState, f.detail)
		}
	}
	shown := false
	switch v.Kind {
	case "SWMR":
		shown = contains(onState)
	case "data-value":
		shown = contains(onState) || contains(badLoads)
	case "deadlock":
		shown = len(sys.Rules()) == 0 && !quiescent(sys)
	case "error":
		shown = lastErr != nil && lastErr.Error() == v.Detail
	case "stuck":
		shown = !quiescent(sys) // reachability of quiescence is the liveness pass's to judge
	}
	if !shown {
		t.Fatalf("%s: the replayed end state does not show %s: %s\nstate findings: %q\nperformed loads: %q\nerror: %v",
			name, v.Kind, v.Detail, onState, badLoads, lastErr)
	}
}

// TestWitnessReplay: every reported trace is an execution of the concrete
// system that ends in the reported violation.
func TestWitnessReplay(t *testing.T) {
	replayed := 0
	for _, wc := range witnessCases(t) {
		for _, par := range []int{1, 4} {
			cfg := wc.cfg
			cfg.Parallelism = par
			for _, v := range Check(wc.p, cfg).Violations {
				replayWitness(t, fmt.Sprintf("%s/P%d", wc.name, par), wc.p, cfg, v)
				replayed++
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no witness was replayed")
	}
	t.Logf("replayed %d witnesses", replayed)
}

// everyViolation pins, per configuration of FZ_MSI_lost_writeback, the
// witnessLine of a run that keeps every violation (MaxViolations 1000,
// no state cap below DefaultConfig's): the 2-cache runs complete and
// report all of theirs, the 3-cache ones stop at the thousandth. Each
// is a data-value violation on a load's edge, and many of those edges
// reach a state another edge of the same level reached first, so the
// lines move if a repeated successor ever loses its edge or its report.
// Recorded before the per-level dedup of unseen successors.
var everyViolation = map[string]string{
	"stalling/caches=2/reduce=false":    "7376fec80962a12e 624 data-value (trace 12): cache 1 load returned 0, last write is 1",
	"stalling/caches=2/reduce=true":     "2e824f7067191858 552 data-value (trace 11): cache 1 load returned 0, last write is 1",
	"stalling/caches=3/reduce=false":    "825e944da34b18a6 1000 data-value (trace 8): cache 1 load returned 0, last write is 1",
	"stalling/caches=3/reduce=true":     "f1543c13071e12ae 1000 data-value (trace 6): cache 1 load returned 0, last write is 1",
	"nonstalling/caches=2/reduce=false": "1ee6465681e3438b 624 data-value (trace 12): cache 1 load returned 0, last write is 1",
	"nonstalling/caches=2/reduce=true":  "a0658cc965d68e19 552 data-value (trace 11): cache 1 load returned 0, last write is 1",
	"nonstalling/caches=3/reduce=false": "2d9d41b5b2a68099 1000 data-value (trace 8): cache 1 load returned 0, last write is 1",
	"nonstalling/caches=3/reduce=true":  "e1278c3c0da0f24f 1000 data-value (trace 6): cache 1 load returned 0, last write is 1",
	"deferred/caches=2/reduce=false":    "149aa9c4194fd947 624 data-value (trace 12): cache 1 load returned 0, last write is 1",
	"deferred/caches=2/reduce=true":     "a0658cc965d68e19 552 data-value (trace 11): cache 1 load returned 0, last write is 1",
	"deferred/caches=3/reduce=false":    "5e478dabc54dfc3b 1000 data-value (trace 8): cache 1 load returned 0, last write is 1",
	"deferred/caches=3/reduce=true":     "2cb184f89ac102b9 1000 data-value (trace 6): cache 1 load returned 0, last write is 1",
}

// TestEveryViolation: with the violation cap lifted, the whole list of
// (Kind, Detail, Trace) is the recorded one at Parallelism 1 and 4, not
// only the first few that TestWitnessGolden pins. -short keeps the
// 2-cache half.
func TestEveryViolation(t *testing.T) {
	b, err := os.ReadFile("../fuzz/corpus/FZ_MSI_lost_writeback.ssp")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dsl.Parse(string(b))
	if err != nil {
		t.Fatal(err)
	}
	cacheCounts := []int{2, 3}
	if testing.Short() {
		cacheCounts = []int{2}
	}
	for _, mode := range []string{"stalling", "nonstalling", "deferred"} {
		opts, err := core.OptionsForMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		opts.PendingLimit = 1
		p, err := core.Generate(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, caches := range cacheCounts {
			for _, reduce := range []bool{false, true} {
				name := fmt.Sprintf("%s/caches=%d/reduce=%t", mode, caches, reduce)
				want := name + " " + everyViolation[name]
				for _, par := range []int{1, 4} {
					cfg := DefaultConfig()
					cfg.Caches, cfg.Reduce, cfg.MaxViolations, cfg.Parallelism = caches, reduce, 1000, par
					if got := witnessLine(name, Check(p, cfg)); got != want {
						t.Errorf("P%d:\n  got:  %s\n  want: %s", par, got, want)
					}
				}
			}
		}
	}
}
