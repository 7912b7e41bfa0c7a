package protogen_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"protogen"
)

// engineGolden pins the exact exploration numbers (recorded from the
// seed's sequential string-keyed checker, same table as
// internal/verify/parallel_test.go) that the registry protocols must
// reproduce through the job API at 2-cache QuickVerifyConfig scale.
var engineGolden = []struct {
	protocol, mode       string
	states, edges, depth int
}{
	{"MSI", "stalling", 8180, 19064, 43},
	{"MSI", "nonstalling", 11963, 28281, 46},
	{"MESI", "stalling", 8452, 19637, 48},
	{"MESI", "nonstalling", 11762, 27701, 48},
	{"MOSI", "stalling", 12362, 28602, 45},
	{"MOSI", "nonstalling", 15575, 36549, 46},
	{"MSI_Upgrade", "stalling", 8540, 19904, 43},
	{"MSI_Upgrade", "nonstalling", 12371, 29187, 46},
	{"MSI_Unordered", "stalling", 9436, 22304, 51},
	{"MSI_Unordered", "nonstalling", 16466, 40340, 51},
}

// TestEngineGoldenNumbersEveryParallelism is the api_redesign acceptance
// gate: every registry protocol reproduces its exact States/Edges/Depth
// through Engine.Verify at every parallelism.
func TestEngineGoldenNumbersEveryParallelism(t *testing.T) {
	for _, g := range engineGolden {
		e, ok := protogen.LookupBuiltin(g.protocol)
		if !ok {
			t.Fatalf("unknown builtin %s", g.protocol)
		}
		for _, par := range []int{1, 2, 4} {
			eng := protogen.NewEngine(protogen.WithParallelism(par))
			cfg := protogen.QuickVerifyConfig()
			res, err := eng.Verify(context.Background(), protogen.VerifyJob{
				Source: e.Source,
				Mode:   g.mode,
				Config: &cfg,
			})
			if err != nil {
				t.Fatalf("%s %s P=%d: %v", g.protocol, g.mode, par, err)
			}
			if !res.OK() || !res.Complete || res.Canceled {
				t.Fatalf("%s %s P=%d: %v", g.protocol, g.mode, par, res)
			}
			if res.States != g.states || res.Edges != g.edges || res.Depth != g.depth {
				t.Errorf("%s %s P=%d: states/edges/depth = %d/%d/%d, want %d/%d/%d",
					g.protocol, g.mode, par, res.States, res.Edges, res.Depth,
					g.states, g.edges, g.depth)
			}
		}
	}
}

// TestEngineVerifyTSOCCDefault: a TSO_CC job with no Config passes. The
// protocol's acquire fences, not an option, exempt it from SWMR and the
// data-value invariant, which its stale Shared copies break by design.
func TestEngineVerifyTSOCCDefault(t *testing.T) {
	res, err := protogen.NewEngine().Verify(context.Background(), protogen.VerifyJob{Source: protogen.BuiltinTSOCC})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict() != protogen.Pass {
		t.Fatalf("TSO_CC at the default configuration: %v", res)
	}
}

// TestEngineVerifyCacheFlow: cold run computes, warm run serves the
// Cached copy with identical counts, canceled runs never pollute the
// cache.
func TestEngineVerifyCacheFlow(t *testing.T) {
	eng := protogen.NewEngine(protogen.WithCacheDir(t.TempDir()), protogen.WithParallelism(1))
	defer eng.Close()
	cfg := protogen.QuickVerifyConfig()
	job := protogen.VerifyJob{Source: protogen.BuiltinMSI, Mode: "stalling", Config: &cfg}

	// A canceled run must not seed the cache.
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.Verify(canceledCtx, job)
	if err != nil || !res.Canceled {
		t.Fatalf("canceled run: res=%v err=%v", res, err)
	}

	cold, err := eng.Verify(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached || cold.Canceled || !cold.Complete {
		t.Fatalf("cold run served from cache or partial: %v (cached=%v)", cold, cold.Cached)
	}
	warm, err := eng.Verify(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatalf("warm run missed the cache: %v", warm)
	}
	if warm.States != cold.States || warm.Edges != cold.Edges || warm.Depth != cold.Depth {
		t.Fatalf("cached result drifted: %v vs %v", warm, cold)
	}
	// NoCache opts out per job.
	fresh, err := eng.Verify(context.Background(), protogen.VerifyJob{
		Source: protogen.BuiltinMSI, Mode: "stalling", Config: &cfg, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("NoCache job served from cache")
	}
}

// TestEngineCacheWriteWarning: a failing result-cache write loses only
// memoization — the verdict comes back clean — but surfaces through the
// WithWarnings sink instead of vanishing silently.
func TestEngineCacheWriteWarning(t *testing.T) {
	var warns []string
	eng := protogen.NewEngine(
		protogen.WithCacheDir(t.TempDir()),
		protogen.WithParallelism(1),
		protogen.WithWarnings(func(msg string) { warns = append(warns, msg) }),
	)
	c, err := eng.Cache()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // every Put from here on fails
		t.Fatal(err)
	}
	cfg := protogen.QuickVerifyConfig()
	job := protogen.VerifyJob{Source: protogen.BuiltinMSI, Mode: "stalling", Config: &cfg}
	res, err := eng.Verify(context.Background(), job)
	if err != nil || !res.OK() {
		t.Fatalf("verdict must survive a cache write failure: %v %v", res, err)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "result cache write failed") {
		t.Fatalf("want exactly one cache-write warning, got %q", warns)
	}
	// The entry still memoizes for this process.
	if again, err := eng.Verify(context.Background(), job); err != nil || !again.Cached || len(warns) != 1 {
		t.Fatalf("rerun: cached=%v err=%v warnings=%q", again != nil && again.Cached, err, warns)
	}
}

// TestEngineCacheDamageWarning: a cache file with a line that is not an
// entry opens, serves the rest, and says so once through the sink.
func TestEngineCacheDamageWarning(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "verify-cache.jsonl"), []byte("not an entry\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warns []string
	eng := protogen.NewEngine(protogen.WithCacheDir(dir), protogen.WithWarnings(func(msg string) { warns = append(warns, msg) }))
	defer eng.Close()
	for i := 0; i < 2; i++ {
		if c, err := eng.Cache(); err != nil || c.Len() != 0 {
			t.Fatalf("Cache() = %v, %v", c, err)
		}
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "1 unreadable line(s) skipped, the first at byte 0") {
		t.Fatalf("want one damage warning, got %q", warns)
	}
}

// TestEngineFingerprintOption: a job config asking for the
// hash-compacted visited set runs through the engine (whose parallelism
// still fills in) and reproduces the exact-mode numbers.
func TestEngineFingerprintOption(t *testing.T) {
	eng := protogen.NewEngine(protogen.WithParallelism(2))
	cfg := protogen.QuickVerifyConfig()
	cfg.Fingerprint = true
	res, err := eng.Verify(context.Background(), protogen.VerifyJob{
		Source: protogen.BuiltinMSI, Mode: "nonstalling", Config: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 11963 || res.Edges != 28281 || res.Depth != 46 {
		t.Fatalf("fingerprint engine diverged from golden: %v", res)
	}
}

// TestEngineJobValidation: malformed jobs error instead of panicking.
func TestEngineJobValidation(t *testing.T) {
	eng := protogen.NewEngine()
	ctx := context.Background()
	if _, err := eng.Verify(ctx, protogen.VerifyJob{}); err == nil {
		t.Error("subject-less job must error")
	}
	spec, _ := protogen.Parse(protogen.BuiltinMSI)
	if _, err := eng.Verify(ctx, protogen.VerifyJob{Spec: spec, Source: "x"}); err == nil {
		t.Error("double-subject job must error")
	}
	if _, err := eng.Verify(ctx, protogen.VerifyJob{Source: protogen.BuiltinMSI, Mode: "bogus"}); err == nil {
		t.Error("unknown mode must error")
	}
	if _, err := eng.Simulate(ctx, protogen.SimulateJob{Source: protogen.BuiltinMSI}); err == nil {
		t.Error("workload-less simulate job must error")
	}
}

// TestEngineCachesBound: every job kind refuses a cache count above
// the checker's bound (8) before doing any work, still runs at the
// bound, and reads zero or a negative count as "the job's default".
func TestEngineCachesBound(t *testing.T) {
	eng := protogen.NewEngine(protogen.WithParallelism(1))
	ctx := context.Background()
	kinds := map[string]func(caches int) error{
		"verify": func(caches int) error {
			cfg := protogen.QuickVerifyConfig()
			cfg.Caches, cfg.MaxStates, cfg.CheckLiveness = caches, 20, false
			res, err := eng.Verify(ctx, protogen.VerifyJob{Source: protogen.BuiltinMSI, Config: &cfg})
			if err == nil && res.States == 0 {
				err = errors.New("explored nothing")
			}
			return err
		},
		"simulate": func(caches int) error {
			st, err := eng.Simulate(ctx, protogen.SimulateJob{Source: protogen.BuiltinMSI,
				Config: protogen.SimConfig{Caches: caches, Steps: 400, Seed: 1, Workload: protogen.StandardWorkloads()[0]}})
			if err == nil && st.Hits+st.Transactions == 0 {
				err = errors.New("no cache ever ran an access")
			}
			return err
		},
		"litmus": func(caches int) error {
			_, err := eng.Litmus(ctx, protogen.LitmusJob{Source: protogen.BuiltinMSI,
				Tests: []string{"CoRR"}, Caches: caches, MaxStates: 200})
			return err
		},
		"fuzz": func(caches int) error {
			cfg := protogen.DefaultFuzzConfig()
			cfg.Caches, cfg.MaxStates, cfg.SimSteps = caches, 20, 0
			cfg.Shrink, cfg.NoPOR, cfg.NoLitmus = false, true, true
			rep, err := eng.Fuzz(ctx, protogen.FuzzJob{First: 0, Last: 1, Config: &cfg})
			if err == nil && rep.RanChecks != len(protogen.Modes) {
				err = fmt.Errorf("ran %d model checks, want %d", rep.RanChecks, len(protogen.Modes))
			}
			return err
		},
	}
	for kind, run := range kinds {
		for _, caches := range []int{0, -1, 8} {
			if err := run(caches); err != nil {
				t.Errorf("%s with %d caches must run: %v", kind, caches, err)
			}
		}
		start := time.Now()
		err := run(9)
		if err == nil || !strings.Contains(err.Error(), "9 caches") {
			t.Errorf("%s with 9 caches: error %v, want the bound", kind, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s took %v to refuse 9 caches; the bound is checked before any work", kind, d)
		}
	}
}

// TestPartlyFilledConfig: a job config with one of its sizes left zero
// gets the default for it, so 2-cache non-stalling MSI explores its
// pinned space and a campaign seed passes. Handed to the checker as
// written, a zero Values divides by zero, a zero Capacity turns every
// send into a channel-overflow "error" violation and a zero MaxStates is
// a two-state "capped — PASS".
func TestPartlyFilledConfig(t *testing.T) {
	eng := protogen.NewEngine()
	ctx := context.Background()
	verify := func(zero func(*protogen.VerifyConfig)) func() error {
		return func() error {
			cfg := protogen.QuickVerifyConfig()
			cfg.Parallelism = 1 // keeps the checker, and so a panic in it, on this goroutine
			zero(&cfg)
			res, err := eng.Verify(ctx, protogen.VerifyJob{Source: protogen.BuiltinMSI, Config: &cfg, NoCache: true})
			if err == nil && (!res.OK() || !res.Complete || res.States != 11963) {
				err = errors.New(res.String())
			}
			return err
		}
	}
	fuzz := func(zero func(*protogen.FuzzConfig)) func() error {
		return func() error {
			cfg := protogen.DefaultFuzzConfig()
			cfg.Parallelism, cfg.SimSteps, cfg.NoPOR, cfg.NoLitmus = 1, 0, true, true
			zero(&cfg)
			rep, err := eng.Fuzz(ctx, protogen.FuzzJob{First: 0, Last: 1, Config: &cfg})
			if err != nil {
				return err
			}
			for _, m := range rep.Specs[0].Modes {
				if !m.OK || !m.Complete {
					return fmt.Errorf("%s: %d states, complete %v, %s %s", m.Mode, m.States, m.Complete, m.Violation, m.Detail)
				}
			}
			return nil
		}
	}
	rows := map[string]func() error{
		"verify/Values=0":    verify(func(c *protogen.VerifyConfig) { c.Values = 0 }),
		"verify/Capacity=0":  verify(func(c *protogen.VerifyConfig) { c.Capacity = 0 }),
		"verify/MaxStates=0": verify(func(c *protogen.VerifyConfig) { c.MaxStates = 0 }),
		"fuzz/MaxStates=0":   fuzz(func(c *protogen.FuzzConfig) { c.MaxStates = 0 }),
	}
	for name, run := range rows {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic: %v", name, r)
				}
			}()
			if err := run(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
}

// TestChannelProgress: events flow over a channel without ever blocking
// the job, and a full channel drops rather than stalls.
func TestChannelProgress(t *testing.T) {
	ch := make(chan protogen.ProgressEvent, 256)
	eng := protogen.NewEngine(protogen.WithParallelism(1))
	cfg := protogen.QuickVerifyConfig()
	res, err := eng.Verify(context.Background(), protogen.VerifyJob{
		Source:     protogen.BuiltinMSI,
		Mode:       "stalling",
		Config:     &cfg,
		OnProgress: protogen.ChannelProgress(ch),
	})
	if err != nil || !res.OK() {
		t.Fatalf("verify: %v %v", res, err)
	}
	close(ch)
	n := 0
	for ev := range ch {
		if ev.Kind() != "verify" {
			t.Fatalf("event kind %q", ev.Kind())
		}
		n++
	}
	if n == 0 {
		t.Fatal("no events reached the channel")
	}
	// A zero-capacity channel must drop, not deadlock.
	res, err = eng.Verify(context.Background(), protogen.VerifyJob{
		Source:     protogen.BuiltinMSI,
		Mode:       "stalling",
		Config:     &cfg,
		OnProgress: protogen.ChannelProgress(make(chan protogen.ProgressEvent)),
	})
	if err != nil || !res.OK() {
		t.Fatalf("verify with full channel: %v %v", res, err)
	}
}

// TestEngineSimulateAndFuzzJobs: the other two job types run end to end
// with engine defaults.
func TestEngineSimulateAndFuzzJobs(t *testing.T) {
	eng := protogen.NewEngine(protogen.WithParallelism(2))
	st, err := eng.Simulate(context.Background(), protogen.SimulateJob{
		Source: protogen.BuiltinMSI,
		Config: protogen.SimConfig{Caches: 2, Steps: 3000, Seed: 1, Workload: protogen.StandardWorkloads()[0]},
	})
	if err != nil || st.Canceled || st.SCViolations > 0 {
		t.Fatalf("simulate: %+v %v", st, err)
	}
	fcfg := protogen.DefaultFuzzConfig()
	fcfg.SimSteps = 300
	fcfg.Shrink = false
	rep, err := eng.Fuzz(context.Background(), protogen.FuzzJob{First: 0, Last: 3, Config: &fcfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canceled || rep.Pass+rep.Fail != 3 {
		t.Fatalf("fuzz: %+v", rep)
	}
}

// TestLoadSpec covers the shared CLI spec-resolution helper.
func TestLoadSpec(t *testing.T) {
	if _, err := protogen.LoadSpec("MSI", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := protogen.LoadSpec("NoSuch", ""); err == nil {
		t.Error("unknown registry name must error")
	}
	path := filepath.Join(t.TempDir(), "msi.ssp")
	if err := os.WriteFile(path, []byte(protogen.BuiltinMESI), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := protogen.LoadSpec("ignored-when-file-set", path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "MESI" {
		t.Errorf("file spec parsed as %q", spec.Name)
	}
	if _, err := protogen.LoadSpec("", filepath.Join(t.TempDir(), "absent.ssp")); err == nil {
		t.Error("missing file must error")
	}
}
