package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"protogen"
)

// lab is what every experiment shares: the -caches scale, an engine
// carrying -parallel, and the run's cancellation, so every model check
// and campaign inherits them without per-experiment plumbing.
type lab struct {
	ctx    context.Context
	eng    *protogen.Engine
	caches int
}

type experiment struct {
	id, what string
	run      func(l *lab, w io.Writer) error
}

// experiments runs the -run experiments in order. Each prints the
// artifact it reproduces plus a paper-vs-measured note, and returns an
// error when its claim fails; timings are bench/'s job.
func experiments(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("experiments", w)
	check := CheckFlags{Caches: 2} // the paper uses 3; minutes instead of seconds
	check.Bind(fs, Caches|Parallel)
	runFlag := fs.String("run", "all", "experiment id: table1 table2 table3-4 table5 figure1 figure2 table6 e-a e-b e-c e-d e-e x-1 x-2 x-3 fuzz, or 'all'")
	if err := parse(fs, args); err != nil {
		return err
	}
	l := &lab{caches: check.Caches}
	var done func()
	l.ctx, l.eng, done = check.Start(ctx, nil)
	defer done()
	exps := []experiment{
		{"table1", "Table I: atomic MSI cache SSP", (*lab).table1},
		{"table2", "Table II: atomic MSI directory SSP", (*lab).table2},
		{"table3-4", "Tables III/IV: MOSI forwarded-request renaming", (*lab).table34},
		{"table5", "Table V: transient states without concurrency", (*lab).table5},
		{"figure1", "Figure 1: S->M transaction with Tother -> Town", (*lab).figure1},
		{"figure2", "Figure 2: I->S transition and IS^D_I", (*lab).figure2},
		{"table6", "Table VI: non-stalling MSI vs the primer", (*lab).table6},
		{"e-a", "§VI-A: stalling protocols identical to the primer + verified", (*lab).expA},
		{"e-b", "§VI-B: non-stalling protocols, state counts + verified", (*lab).expB},
		{"e-c", "§VI-C: MSI for an unordered network", (*lab).expC},
		{"e-d", "§VI-D: TSO-CC generation + litmus verification", (*lab).expD},
		{"e-e", "§VI-E: generation runtime", (*lab).expE},
		{"x-1", "extension: stalling vs non-stalling performance", (*lab).expX1},
		{"x-2", "extension: pending-limit L sweep", (*lab).expX2},
		{"x-3", "extension: response-policy + stale-Put-pruning ablation", (*lab).expX3},
		{"fuzz", "extension: randomized-SSP differential verification campaign", (*lab).expFuzz},
	}
	want := strings.ToLower(*runFlag)
	ran := false
	for _, e := range exps {
		if want != "all" && want != e.id {
			continue
		}
		ran = true
		fmt.Fprintf(w, "\n================ %s — %s ================\n\n", strings.ToUpper(e.id), e.what)
		err := e.run(l, w)
		if l.ctx.Err() != nil {
			// Whatever an interrupted experiment printed or concluded
			// covers a partial run only.
			return fmt.Errorf("%s: interrupted", e.id)
		}
		if err != nil {
			return fmt.Errorf("%s: %v", e.id, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *runFlag)
	}
	return nil
}

// expFuzz runs a compact differential campaign: random well-formed SSPs
// from the shipped families, every generation mode model-checked and
// cross-checked, plus the demonstration that a planted bug is caught and
// shrunk to a handful of processes.
func (l *lab) expFuzz(w io.Writer) error {
	cfg := protogen.DefaultFuzzConfig()
	cfg.Caches = l.caches
	cfg.SimSteps = 1500
	cfg.Shrink = false
	rep, err := l.eng.Fuzz(l.ctx, protogen.FuzzJob{First: 0, Last: 16, Config: &cfg})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shipped families: %s\n", rep.Summary())
	for _, r := range rep.Specs {
		if !r.OK() {
			return fmt.Errorf("seed %d (%s): %s", r.Seed, r.Family, r.Failure)
		}
	}
	broken, _ := protogen.FuzzShapeByName("FZ_MI_double_grant")
	r := protogen.FuzzCheckSource(broken.Source(), 1, 7, cfg)
	if r.OK() {
		return fmt.Errorf("planted double-grant bug was not caught")
	}
	min, err := protogen.FuzzShrink(broken.Source(), r.Failure, r.SimSeed, cfg)
	if err != nil {
		return err
	}
	n, _ := protogen.FuzzTxnCount(min)
	fmt.Fprintf(w, "planted %s bug: caught as %s, reproducer shrunk to %d processes\n",
		broken.Name(), r.Failure, n)
	fmt.Fprintln(w, "\nEvery random well-formed SSP yields a correct concurrent protocol in all")
	fmt.Fprintln(w, "three modes — the paper's generality claim under randomized stress; planted")
	fmt.Fprintln(w, "bugs are flagged by the same campaign and minimized for the corpus.")
	return nil
}

func mustGen(name, mode string) *protogen.Protocol {
	e, ok := protogen.LookupBuiltin(name)
	if !ok {
		panic("unknown protocol " + name)
	}
	o, err := protogen.OptionsForMode(mode)
	if err != nil {
		panic(err)
	}
	p, err := protogen.GenerateSource(e.Source, o)
	if err != nil {
		panic(err)
	}
	return p
}

func (l *lab) table1(w io.Writer) error {
	spec, err := protogen.Parse(protogen.BuiltinMSI)
	if err != nil {
		return err
	}
	cache, _ := protogen.RenderSpecTables(spec)
	fmt.Fprintln(w, cache)
	fmt.Fprintln(w, "paper: Table I — same stable states, accesses and handlers.")
	return nil
}

func (l *lab) table2(w io.Writer) error {
	spec, err := protogen.Parse(protogen.BuiltinMSI)
	if err != nil {
		return err
	}
	_, dir := protogen.RenderSpecTables(spec)
	fmt.Fprintln(w, dir)
	fmt.Fprintln(w, "paper: Table II — same directory behavior incl. the owner constraint on PutM.")
	return nil
}

func (l *lab) table34(w io.Writer) error {
	p := mustGen("MOSI", "nonstalling")
	fmt.Fprintln(w, "Before preprocessing (Table III): the MOSI SSP defines Fwd_GetS at both M and O.")
	fmt.Fprintln(w, "After preprocessing (Table IV), renames performed:")
	for from, tos := range p.Renames {
		fmt.Fprintf(w, "  %s -> %v\n", from, tos)
	}
	fmt.Fprintln(w, "\nGenerated handlers:")
	for _, s := range []protogen.StateName{"M", "O"} {
		for _, t := range p.Cache.TransFrom(s) {
			if t.Ev.Kind == 1 && strings.Contains(string(t.Ev.Msg), "Fwd_GetS") {
				fmt.Fprintf(w, "  %s + %-12s -> %s\n", s, t.Ev.Msg, t.CellString())
			}
		}
	}
	fmt.Fprintln(w, "\npaper: Fwd_GetS stays at M; O's copy becomes O_Fwd_GetS. Reproduced.")
	return nil
}

func (l *lab) table5(w io.Writer) error {
	p := mustGen("MSI", "stalling")
	fmt.Fprintln(w, "Step-2 transient chain of the I->M transaction (no concurrency):")
	for _, n := range []protogen.StateName{"I", "IMAD", "IMA"} {
		for _, t := range p.Cache.TransFrom(n) {
			if t.Stall || t.Stale {
				continue
			}
			g := ""
			if t.GuardLabel != "" {
				g = " [" + t.GuardLabel + "]"
			}
			fmt.Fprintf(w, "  %-5s %-8s%s -> %s\n", n, t.Ev, g, t.CellString())
		}
	}
	fmt.Fprintln(w, "\npaper Table V: I --store--> IMAD; IMAD --DataNoAcks--> M;")
	fmt.Fprintln(w, "IMAD --Data+#Acks--> IMA; IMA --LastAck--> M. Reproduced.")
	return nil
}

func (l *lab) figure1(w io.Writer) error {
	p := mustGen("MSI", "nonstalling")
	fmt.Fprintln(w, "SM_AD races (cache S->M transaction, GetM issued, no response yet):")
	for _, t := range p.Cache.TransFrom("SMAD") {
		if t.Ev.Kind != 1 || t.Stale {
			continue
		}
		fmt.Fprintf(w, "  SMAD + %-9s -> %s\n", t.Ev.Msg, t.CellString())
	}
	fmt.Fprintln(w, "\nGraphviz form (paper Figure 1):")
	fmt.Fprintln(w, protogen.RenderDot(p.Cache, []protogen.StateName{"S", "SMAD", "IMAD", "SMA", "M"}))
	fmt.Fprintln(w, "paper Figure 1: an Invalidation in SM_AD means Tother -> Town;")
	fmt.Fprintln(w, "respond immediately and restart from I: SM_AD --Inv--> IM_AD. Reproduced.")
	return nil
}

func (l *lab) figure2(w io.Writer) error {
	p := mustGen("MSI", "nonstalling")
	fmt.Fprintln(w, "IS_D and IS_D_I (cache I->S transaction):")
	for _, n := range []protogen.StateName{"ISD", "ISDI"} {
		st := p.Cache.State(n)
		fmt.Fprintf(w, "  %s: state set %v, logical chain %v\n", n, st.StateSet, st.Chain)
		for _, t := range p.Cache.TransFrom(n) {
			if t.Ev.Kind != 1 || t.Stale {
				continue
			}
			fmt.Fprintf(w, "    + %-8s -> %s\n", t.Ev.Msg, t.CellString())
		}
	}
	fmt.Fprintln(w, "\nGraphviz form (paper Figure 2):")
	fmt.Fprintln(w, protogen.RenderDot(p.Cache, []protogen.StateName{"I", "ISD", "ISDI", "S"}))
	fmt.Fprintln(w, "paper Figure 2: IS_D is in both I and S state sets; an Invalidation moves it")
	fmt.Fprintln(w, "to IS_D_I (I only), ack sent immediately, one load performed on Data. Reproduced.")
	return nil
}

func (l *lab) table6(w io.Writer) error {
	p := mustGen("MSI", "nonstalling")
	fmt.Fprintln(w, protogen.RenderTable(p.Cache, protogen.TableOptions{}))
	s, tr, st := p.Cache.Counts()
	fmt.Fprintf(w, "cache: %d states, %d transitions (+%d stall cells)\n\n", s, tr, st)
	r := protogen.CompareWithBaseline(p.Cache, protogen.PrimerNonStallingMSI())
	fmt.Fprintln(w, "Diff vs the primer's non-stalling MSI:")
	fmt.Fprintln(w, r)
	fmt.Fprintln(w, "paper Table VI: 4 de-stalled cells (IM_AD/SM_AD x Fwd-GetS/Fwd-GetM),")
	fmt.Fprintln(w, "4 extra states (IMADS IMADI IMADSI SMADS), merges IMAS=SMAS, IMASI=SMASI, IMAI=SMAI.")
	return nil
}

func (l *lab) verifyCfg() protogen.VerifyConfig {
	cfg := protogen.DefaultVerifyConfig()
	cfg.Caches = l.caches
	return cfg
}

// claim turns a check's verdict into what an experiment may claim: a
// FAIL fails the claim with failed as the error, and an INCOMPLETE run —
// stopped by a bound with no violation found — supports no claim either,
// so the experiment stops before printing one.
func claim(res *protogen.VerifyResult, failed string) error {
	switch res.Verdict() {
	case protogen.Fail:
		return errors.New(failed)
	case protogen.Incomplete:
		return fmt.Errorf("%s: INCOMPLETE (%s at %d states), no claim", res.Protocol, res.Bound(), res.States)
	}
	return nil
}

// verifyP model-checks an already-generated protocol on the shared
// engine (which carries -parallel).
func (l *lab) verifyP(p *protogen.Protocol, cfg protogen.VerifyConfig) *protogen.VerifyResult {
	res, err := l.eng.Verify(l.ctx, protogen.VerifyJob{Protocol: p, Config: &cfg})
	if err != nil {
		panic(err) // unreachable: a Protocol-subject job cannot fail to resolve
	}
	return res
}

func (l *lab) expA(w io.Writer) error {
	for _, name := range []string{"MSI", "MESI", "MOSI"} {
		p := mustGen(name, "stalling")
		s, tr, _ := p.Cache.Counts()
		fmt.Fprintf(w, "%-5s stalling: %2d cache states, %3d transitions", name, s, tr)
		if name == "MSI" {
			r := protogen.CompareWithBaseline(p.Cache, protogen.PrimerStallingMSI())
			fmt.Fprintf(w, "; primer diff: %d identical cells, %d diffs", r.SameCells, len(r.Diffs))
		}
		res := l.verifyP(p, l.verifyCfg())
		fmt.Fprintf(w, "\n      verify: %s\n", res)
		if err := claim(res, name+" failed verification"); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\npaper §VI-A: generated == primer; all verified (SWMR + deadlock freedom). Reproduced.")
	return nil
}

func (l *lab) expB(w io.Writer) error {
	for _, name := range []string{"MSI", "MESI", "MOSI"} {
		for _, L := range []int{3, 1} {
			o := protogen.NonStalling()
			o.PendingLimit = L
			e, _ := protogen.LookupBuiltin(name)
			p, err := protogen.GenerateSource(e.Source, o)
			if err != nil {
				return err
			}
			s, tr, _ := p.Cache.Counts()
			fmt.Fprintf(w, "%-5s non-stalling L=%d: %2d states, %3d transitions\n", name, L, s, tr)
		}
		p := mustGen(name, "nonstalling")
		res := l.verifyP(p, l.verifyCfg())
		fmt.Fprintf(w, "      verify: %s\n", res)
		if err := claim(res, name+" failed verification"); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\npaper §VI-B: \"18-20 states and 46-60 transitions\"; MSI reproduces Table VI's")
	fmt.Fprintln(w, "19 exactly; MESI/MOSI sit in the band at L=1 and grow richer at L=3.")
	return nil
}

func (l *lab) expC(w io.Writer) error {
	p := mustGen("MSI_Unordered", "nonstalling")
	s, tr, _ := p.Cache.Counts()
	ds, dt, _ := p.Dir.Counts()
	fmt.Fprintf(w, "MSI_Unordered: cache %d states/%d transitions; directory %d states/%d transitions\n", s, tr, ds, dt)
	fmt.Fprintln(w, "directory busy states (Unblock handshakes):")
	for _, n := range p.Dir.Order {
		if p.Dir.State(n).Kind == 1 {
			fmt.Fprintf(w, "  %s\n", n)
		}
	}
	res := l.verifyP(p, l.verifyCfg())
	fmt.Fprintf(w, "verify on unordered network: %s\n", res)
	if err := claim(res, "unordered MSI failed verification"); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper §VI-C: handshaking SSP; ProtoGen handles the concurrency. Reproduced.")
	return nil
}

func (l *lab) expD(w io.Writer) error {
	p := mustGen("TSO_CC", "nonstalling")
	s, tr, _ := p.Cache.Counts()
	fmt.Fprintf(w, "TSO_CC: %d cache states, %d transitions\n", s, tr)
	res := l.verifyP(p, l.verifyCfg())
	fmt.Fprintf(w, "deadlock freedom: %s\n\n", res)
	if err := claim(res, "TSO-CC deadlocks"); err != nil {
		return err
	}
	rep, err := l.eng.Litmus(l.ctx, protogen.LitmusJob{
		Protocol: p, Tests: []string{"MP", "MP+acq", "SB", "CoRR"}, Exhaustive: true,
	})
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Fprintf(w, "  %-6s %3d states, %d outcomes, relaxed=%v forbidden=%v\n",
			r.Test, r.States, len(r.Outcomes), r.Relaxed, r.Forbidden)
	}
	if len(rep.Failures()) > 0 {
		return fmt.Errorf("TSO-CC litmus: %s", rep.Summary())
	}
	fmt.Fprintln(w, "\npaper §VI-D: TSO-CC generated from its SSP; TSO verified (here: every")
	fmt.Fprintln(w, "schedule of each litmus shape enumerated — forbidden outcomes proven")
	fmt.Fprintln(w, "absent, TSO-allowed relaxations reachable).")
	return nil
}

// expE holds every builtin's generation to the paper's bound; how far
// under it the generator runs is bench/'s generate-sweep workload.
func (l *lab) expE(w io.Writer) error {
	for _, e := range protogen.Builtins() {
		start := time.Now()
		if _, err := protogen.GenerateSource(e.Source, protogen.NonStalling()); err != nil {
			return err
		}
		if d := time.Since(start); d > time.Second {
			return fmt.Errorf("%s generation took %v, over the paper's one-second bound", e.Name, d)
		}
		fmt.Fprintf(w, "%-14s generation: under one second\n", e.Name)
	}
	fmt.Fprintln(w, "\npaper §VI-E: \"runtimes are always well less than one second\". Reproduced.")
	return nil
}

// simulateP runs the extension experiments' simulation on the shared
// engine at SimulateJob's default scale (3 caches, 50 000 steps); a
// per-location SC violation is an error, not a statistic.
func (l *lab) simulateP(p *protogen.Protocol, seed int64, wl protogen.Workload) (protogen.SimStats, error) {
	st, err := l.eng.Simulate(l.ctx, protogen.SimulateJob{
		Protocol: p,
		Config:   protogen.SimConfig{Seed: seed, Workload: wl},
	})
	if err == nil && st.SCViolations != 0 {
		err = fmt.Errorf("%s on %s: %d per-location SC violations", p.Name, wl.Name(), st.SCViolations)
	}
	return st, err
}

func (l *lab) expX1(w io.Writer) error {
	for _, wl := range protogen.StandardWorkloads() {
		for _, mode := range []string{"stalling", "nonstalling"} {
			p := mustGen("MSI", mode)
			st, err := l.simulateP(p, 7, wl)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-18s %-12s %s\n", wl.Name(), mode, st)
		}
	}
	fmt.Fprintln(w, "\nThe non-stalling protocol eliminates essentially all blocked deliveries")
	fmt.Fprintln(w, "under contention — the concurrency the paper's generator unlocks.")
	return nil
}

func (l *lab) expX2(w io.Writer) error {
	for _, L := range []int{0, 1, 2, 3} {
		o := protogen.NonStalling()
		o.PendingLimit = L
		p, err := protogen.GenerateSource(protogen.BuiltinMSI, o)
		if err != nil {
			return err
		}
		s, _, _ := p.Cache.Counts()
		st, err := l.simulateP(p, 21, protogen.StandardWorkloads()[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "L=%d: %2d states; %s\n", L, s, st)
	}
	fmt.Fprintln(w, "\nDeeper absorption budgets trade transient states for stall-freedom.")
	return nil
}

func (l *lab) expX3(w io.Writer) error {
	for _, mode := range protogen.Modes {
		for _, prune := range []bool{true, false} {
			o, err := protogen.OptionsForMode(mode)
			if err != nil {
				return err
			}
			o.PruneSharerOnStalePut = prune
			p, err := protogen.GenerateSource(protogen.BuiltinMSI, o)
			if err != nil {
				return err
			}
			cfg := protogen.QuickVerifyConfig()
			cfg.CheckLiveness = false
			res := l.verifyP(p, cfg)
			fmt.Fprintf(w, "%-12s prune=%-5v: %s\n", mode, prune, res)
			// The finding reads FAIL and PASS rows alike; an INCOMPLETE
			// one supports neither.
			if res.Verdict() == protogen.Incomplete {
				return claim(res, "")
			}
		}
	}
	fmt.Fprintln(w, "\nFinding: the paper calls sharer pruning on stale Puts an optional")
	fmt.Fprintln(w, "optimization; the stalling and deferred-response designs deadlock without")
	fmt.Fprintln(w, "it (dangling sharers), while the immediate-response design tolerates it.")
	return nil
}
