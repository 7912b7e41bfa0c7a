package verify

import (
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// benchStates caps the 3-cache MSI exploration used by the visited-set
// measurements: large enough that the fingerprint table's fixed minimum
// footprint is amortized away, small enough for CI (the full 3-cache
// space runs to millions of states).
const benchStates = 50_000

func gen3CacheMSI(tb testing.TB) *ir.Protocol {
	tb.Helper()
	e, ok := protocols.Lookup("MSI")
	if !ok {
		tb.Fatal("unknown builtin MSI")
	}
	spec, err := dsl.Parse(e.Source)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func bench3CacheConfig(fingerprint bool) Config {
	cfg := DefaultConfig()
	cfg.Caches = 3
	cfg.MaxStates = benchStates
	cfg.CheckLiveness = false // the edge graph is identical in both modes
	cfg.Fingerprint = fingerprint
	return cfg
}

// TestFingerprintBytesReduction asserts fingerprint mode's headline
// memory claim at 3-cache MSI benchmark scale: the table without its
// key column retains at least 5x fewer bytes per state than with it,
// while exploring the identical state space.
func TestFingerprintBytesReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("3-cache exploration in -short mode")
	}
	p := gen3CacheMSI(t)
	exact := Check(p, bench3CacheConfig(false))
	fp := Check(p, bench3CacheConfig(true))
	if exact.States != fp.States || exact.Edges != fp.Edges || exact.Depth != fp.Depth {
		t.Fatalf("modes diverged: exact %d/%d/%d, fingerprint %d/%d/%d",
			exact.States, exact.Edges, exact.Depth, fp.States, fp.Edges, fp.Depth)
	}
	if exact.States != benchStates {
		t.Fatalf("states = %d, want the %d cap", exact.States, benchStates)
	}
	ratio := float64(exact.VisitedBytes) / float64(fp.VisitedBytes)
	t.Logf("visited bytes/state: exact %.1f, fingerprint %.1f (%.1fx)",
		float64(exact.VisitedBytes)/float64(exact.States),
		float64(fp.VisitedBytes)/float64(fp.States), ratio)
	if ratio < 5 {
		t.Errorf("visited-set reduction %.1fx, want ≥5x (exact %d B, fingerprint %d B)",
			ratio, exact.VisitedBytes, fp.VisitedBytes)
	}
}

// BenchmarkVisitedStore measures the visited set's bytes/state on the
// 3-cache MSI exploration in both modes. The bytes/state metric is
// diffed against BENCH_baseline.json by CI (cmd/benchdiff); a >10%
// regression fails the build.
func BenchmarkVisitedStore(b *testing.B) {
	p := gen3CacheMSI(b)
	for _, mode := range []struct {
		name        string
		fingerprint bool
	}{{"exact", false}, {"fingerprint", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := Check(p, bench3CacheConfig(mode.fingerprint))
				if !res.OK() {
					b.Fatal(res)
				}
				b.ReportMetric(float64(res.VisitedBytes)/float64(res.States), "bytes/state")
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}
