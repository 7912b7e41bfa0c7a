package sim

import (
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

func gen(t *testing.T, src string, opts core.Options) *ir.Protocol {
	t.Helper()
	spec, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunMSIWorkloads: every workload runs clean on non-stalling MSI with
// no SC violations and plenty of completed transactions.
func TestRunMSIWorkloads(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	for _, w := range Workloads() {
		st, err := Run(p, Config{Caches: 3, Steps: 20000, Seed: 42, Workload: w})
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		t.Logf("%s: %s", w.Name(), st)
		if st.SCViolations != 0 {
			t.Errorf("%s: %d per-location SC violations", w.Name(), st.SCViolations)
		}
		if st.Transactions < 100 {
			t.Errorf("%s: only %d transactions completed", w.Name(), st.Transactions)
		}
	}
}

// TestStallingVsNonStalling quantifies the paper's "reduce stalling"
// claim: under contention the non-stalling protocol must block fewer
// delivery attempts than the stalling one.
func TestStallingVsNonStalling(t *testing.T) {
	pn := gen(t, protocols.MSI, core.NonStallingOpts())
	ps := gen(t, protocols.MSI, core.StallingOpts())
	cfg := Config{Caches: 3, Steps: 30000, Seed: 7, Workload: Contended{}}
	sn, err := Run(pn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Run(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-stalling: %s", sn)
	t.Logf("stalling:     %s", ss)
	if sn.SCViolations != 0 || ss.SCViolations != 0 {
		t.Fatalf("SC violations: %d / %d", sn.SCViolations, ss.SCViolations)
	}
	if sn.StallEvents >= ss.StallEvents {
		t.Errorf("non-stalling must stall less: %d vs %d", sn.StallEvents, ss.StallEvents)
	}
}

// TestDeterministicRuns: identical seeds give identical stats.
func TestDeterministicRuns(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	cfg := Config{Caches: 2, Steps: 5000, Seed: 99, Workload: Contended{}}
	a, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged:\n%v\n%v", a, b)
	}
}

// TestMOSIAndMESIRun: the richer protocols execute cleanly too.
func TestMOSIAndMESIRun(t *testing.T) {
	for _, name := range []string{"MESI", "MOSI", "MSI_Upgrade", "MSI_Unordered"} {
		e, ok := protocols.Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		p := gen(t, e.Source, core.NonStallingOpts())
		st, err := Run(p, Config{Caches: 3, Steps: 15000, Seed: 5, Workload: Migratory{}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: %s", name, st)
		if st.SCViolations != 0 {
			t.Errorf("%s: SC violations", name)
		}
	}
}

// simDeadlockSSP requests data from a directory that never answers: the
// GetS is undeliverable forever, the minimal in-flight deadlock.
const simDeadlockSSP = `
protocol SimDeadlock;
network ordered;

message request GetS;
message response Data;

machine cache {
  states I S;
  init I;
  data block;
}

machine directory {
  states I;
  init I;
  data block;
  id owner;
}

architecture cache {
  process (I, load) {
    send GetS to dir;
    await {
      when Data {
        copydata;
        state = S;
      }
    }
  }
  process (S, load) { hit; }
}

architecture directory {
}
`

// TestRunDetectsDeadlock: a system with messages in flight but no enabled
// rule must fail fast with an error naming the in-flight count, instead
// of burning the whole step budget as no-op steps (which silently
// inflated Steps and StallEvents before).
func TestRunDetectsDeadlock(t *testing.T) {
	p := gen(t, simDeadlockSSP, core.NonStallingOpts())
	st, err := Run(p, Config{Caches: 2, Steps: 10000, Seed: 3, Workload: ReadMostly{}})
	if err == nil {
		t.Fatalf("deadlocked run returned no error: %s", st)
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "in flight") {
		t.Errorf("error does not name the deadlock: %v", err)
	}
	if st.Steps >= 10000 {
		t.Errorf("run burned the whole step budget (%d steps) before failing", st.Steps)
	}
}

// TestPendingLimitSweep: deeper absorption budgets shed more stalls under
// contention (or at least never stall more).
func TestPendingLimitSweep(t *testing.T) {
	prev := -1
	for _, l := range []int{0, 1, 3} {
		opts := core.NonStallingOpts()
		opts.PendingLimit = l
		p := gen(t, protocols.MSI, opts)
		st, err := Run(p, Config{Caches: 3, Steps: 20000, Seed: 21, Workload: Contended{}})
		if err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		t.Logf("L=%d: %s", l, st)
		if st.SCViolations != 0 {
			t.Errorf("L=%d: SC violations", l)
		}
		if prev >= 0 && st.StallEvents > prev*2 {
			t.Errorf("L=%d: stalls grew sharply vs smaller L (%d vs %d)", l, st.StallEvents, prev)
		}
		prev = st.StallEvents
	}
}
