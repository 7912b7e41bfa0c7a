package main

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// TestRunVerifyCanceledPartial: a context canceled mid-exploration (here
// via an immediate -timeout-style deadline) yields partial counts, a
// human-readable "interrupted" line, and a non-zero outcome — not a
// silent death.
func TestRunVerifyCanceledPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first level boundary
	var out strings.Builder
	err := run(ctx, []string{"verify", "-protocol", "MSI", "-mode", "nonstalling", "-caches", "2", "-parallel", "1"}, &out)
	if err == nil {
		t.Fatalf("canceled run must report an error:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "(canceled)") || !strings.Contains(s, "interrupted at depth") {
		t.Errorf("partial-result report missing:\n%s", s)
	}
	if !strings.Contains(s, "\nliveness: not checked (canceled)\n") {
		t.Errorf("canceled run must say liveness was not checked:\n%s", s)
	}
}

// TestRunVerifyCappedIncomplete: a run the state cap stops with no
// violation is INCOMPLETE, not PASS, exits non-zero and says on its own
// line that liveness was not checked.
func TestRunVerifyCappedIncomplete(t *testing.T) {
	var out strings.Builder
	err := runBG([]string{"verify", "-protocol", "MSI", "-caches", "3", "-max", "1000", "-parallel", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "INCOMPLETE") {
		t.Fatalf("capped run: err = %v, want an INCOMPLETE error\n%s", err, out.String())
	}
	if s := out.String(); !strings.Contains(s, "(capped) — INCOMPLETE") || strings.Contains(s, "PASS") {
		t.Errorf("capped run must print INCOMPLETE and no PASS:\n%s", s)
	}
	if s := out.String(); !strings.Contains(s, "\nliveness: not checked (capped)\n") {
		t.Errorf("capped run must say liveness was not checked:\n%s", s)
	}
}

// TestRunVerifyProfiles: -cpuprofile/-memprofile write non-empty pprof
// files alongside a normal PASS run.
func TestRunVerifyProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.out", dir+"/mem.out"
	var out strings.Builder
	err := runBG([]string{"verify", "-protocol", "MSI", "-mode", "stalling", "-caches", "2",
		"-parallel", "1", "-cpuprofile", cpu, "-memprofile", mem}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestRunVerifyTimeoutFlag: -timeout arms a deadline; a generous one
// must not interfere with a quick run.
func TestRunVerifyTimeoutFlag(t *testing.T) {
	var out strings.Builder
	start := time.Now()
	err := runBG([]string{"verify", "-protocol", "MSI", "-mode", "stalling", "-caches", "2", "-parallel", "1", "-timeout", "5m"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if time.Since(start) > time.Minute {
		t.Fatal("quick run took implausibly long under -timeout")
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("output lacks PASS: %s", out.String())
	}
}

// TestRunVerifyProgressFlag: -progress streams per-level lines.
func TestRunVerifyProgressFlag(t *testing.T) {
	var out strings.Builder
	if err := runBG([]string{"verify", "-protocol", "MSI", "-mode", "stalling", "-caches", "2", "-parallel", "1", "-progress"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if strings.Count(out.String(), "verify: ") < 2 {
		t.Errorf("expected multiple progress lines:\n%s", out.String())
	}
}

// TestRunVerifyMSI: the end-to-end smoke — generate and verify MSI at a
// fast scale through the real CLI path.
func TestRunVerifyMSI(t *testing.T) {
	var out strings.Builder
	err := runBG([]string{"verify", "-protocol", "MSI", "-mode", "stalling", "-caches", "2", "-parallel", "1"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("output lacks PASS: %s", out.String())
	}
}

// TestRunVerifyDefaults: the default -caches matches the library's
// DefaultConfig (3, the paper setup) — regression for the silent 2/3
// mismatch.
func TestRunVerifyDefaults(t *testing.T) {
	var out strings.Builder
	fsErr := runBG([]string{"verify", "-h"}, &out)
	if fsErr == nil {
		t.Fatal("-h must return flag.ErrHelp")
	}
	if !strings.Contains(out.String(), "caches") || !strings.Contains(out.String(), "(default 3)") {
		t.Errorf("-caches default is not 3:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "max-violations") {
		t.Errorf("-max-violations flag missing:\n%s", out.String())
	}
}

// TestRunVerifyBrokenPrintsAllTraces: with -max-violations > 1 every
// violation is printed with its own trace — regression for -trace only
// showing Violations[0].
func TestRunVerifyBrokenPrintsAllTraces(t *testing.T) {
	var out strings.Builder
	// The no-prune ablation deadlocks the stalling design (§V-F finding).
	err := runBG([]string{"verify",
		"-protocol", "MSI", "-mode", "stalling", "-no-prune",
		"-caches", "2", "-parallel", "1", "-max-violations", "2", "-trace",
	}, &out)
	if err == nil {
		t.Fatalf("no-prune stalling MSI must fail verification:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "violation 1/") {
		t.Errorf("first violation not printed:\n%s", s)
	}
	if strings.Contains(s, "violation 2/2") {
		// Two violations found: both must carry numbered trace lines.
		if strings.Count(s, "  1. ") < 2 && strings.Count(s, "   1. ") < 2 {
			t.Errorf("second violation printed without its trace:\n%s", s)
		}
	}
}

// TestRunVerifyFingerprint: -fingerprint explores the same space as the
// exact run, and the exact run — the one that keeps full keys — is the
// one that reports how many states fingerprinting would have merged.
func TestRunVerifyFingerprint(t *testing.T) {
	var exact, fp strings.Builder
	if err := runBG([]string{"verify", "-protocol", "MSI", "-mode", "stalling", "-caches", "2", "-parallel", "1"}, &exact); err != nil {
		t.Fatal(err)
	}
	err := runBG([]string{"verify",
		"-protocol", "MSI", "-mode", "stalling", "-caches", "2", "-parallel", "1", "-fingerprint",
	}, &fp)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, fp.String())
	}
	wantCounts := strings.SplitN(exact.String(), " (", 2)[0]
	if !strings.Contains(fp.String(), wantCounts) {
		t.Errorf("fingerprint run diverged from exact:\nexact: %s\nfp:    %s", exact.String(), fp.String())
	}
	if !strings.Contains(exact.String(), "fingerprint collisions: 0 over ") {
		t.Errorf("exact run must report a clean collision count:\n%s", exact.String())
	}
	if strings.Contains(fp.String(), "fingerprint collisions") {
		t.Errorf("a -fingerprint run cannot see its own collisions and must not claim to:\n%s", fp.String())
	}
}

// TestRunVerifyReduceReadout: -reduce reports what the reduction did in
// counts that cannot read as a loss — states stored (fewer than the
// full run's), steps fused, states expanded through an ample set — and
// no successor ratio (it printed "(0.82x)" on this very run).
func TestRunVerifyReduceReadout(t *testing.T) {
	var out strings.Builder
	args := []string{"verify", "-protocol", "MSI", "-mode", "nonstalling", "-caches", "2", "-parallel", "1", "-reduce"}
	if err := runBG(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	const want = "reduction: 9741 states stored, 10854 steps fused, 4442 states expanded through an ample set\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("read-out is not\n%sin:\n%s", want, out.String())
	}
	if strings.Contains(out.String(), "x)") || strings.Contains(out.String(), "successors") {
		t.Errorf("the successor ratio is back:\n%s", out.String())
	}
}

// TestRunVerifyCacheDir: a second run with the same -cache-dir is served
// from the result cache; a changed configuration is not.
func TestRunVerifyCacheDir(t *testing.T) {
	dir := t.TempDir()
	base := []string{"verify", "-protocol", "MSI", "-mode", "stalling", "-caches", "2", "-parallel", "1", "-cache-dir", dir}
	var cold, warm, other strings.Builder
	if err := runBG(base, &cold); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cold.String(), "(cached)") {
		t.Fatalf("cold run claims a cache hit:\n%s", cold.String())
	}
	if err := runBG(base, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "(cached)") {
		t.Errorf("warm run missed the cache:\n%s", warm.String())
	}
	wantCounts := strings.SplitN(cold.String(), " (", 2)[0]
	if !strings.Contains(warm.String(), wantCounts) {
		t.Errorf("cached result differs:\ncold: %s\nwarm: %s", cold.String(), warm.String())
	}
	// A different mode must not share the entry.
	if err := runBG([]string{"verify", "-protocol", "MSI", "-mode", "nonstalling", "-caches", "2", "-parallel", "1", "-cache-dir", dir}, &other); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(other.String(), "(cached)") {
		t.Errorf("different generation options hit the same cache entry:\n%s", other.String())
	}
}

// TestRunVerifyUnknownProtocol: an unknown protocol or mode is an error
// naming it.
func TestRunVerifyUnknownProtocol(t *testing.T) {
	wantErr(t, []string{"verify", "-protocol", "NoSuch"}, `unknown protocol "NoSuch"`)
	wantErr(t, []string{"verify", "-protocol", "MSI", "-mode", "bogus"}, `unknown mode "bogus"`)
}
