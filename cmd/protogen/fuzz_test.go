package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCanceledCampaign: a canceled context yields a partial report
// ("canceled after N of M seeds") and a non-zero outcome, not a silent
// death or a bogus failure count.
func TestRunCanceledCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{"fuzz", "-seeds", "0:50", "-sim-steps", "200"}, &out)
	if err == nil {
		t.Fatalf("canceled campaign must report an error:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "canceled after") {
		t.Errorf("error %q lacks partial-seed report", err)
	}
	if !strings.Contains(out.String(), "canceled after") || !strings.Contains(out.String(), "of 50 seeds") {
		t.Errorf("summary lacks cancellation note:\n%s", out.String())
	}
}

// TestReplayIgnoresResultCache: -replay is a regression gate on the
// current binary; even with -cache-dir it must re-run every oracle (and
// so never touch the cache file) rather than serve memoized verdicts
// from an older build.
func TestReplayIgnoresResultCache(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := runBG([]string{"fuzz", "-replay", "-cache-dir", dir}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "verify-cache.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("replay touched the result cache (stat err %v) — it must re-run the oracle", err)
	}
}

// TestRunCanceledReplay: Ctrl-C during -replay stops between corpus
// entries instead of being swallowed by the signal handler.
func TestRunCanceledReplay(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{"fuzz", "-replay"}, &out)
	if err == nil || !strings.Contains(err.Error(), "replay canceled") {
		t.Fatalf("canceled replay must error with a progress note, got %v", err)
	}
}

// TestRunSmallCampaign: a short seed range over the shipped families is
// clean — the CI smoke entry point.
func TestRunSmallCampaign(t *testing.T) {
	var out strings.Builder
	err := runBG([]string{"fuzz", "-seeds", "0:6", "-sim-steps", "1000", "-v"}, &out)
	if err != nil {
		t.Fatalf("campaign failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "6 specs: 6 pass, 0 fail") {
		t.Errorf("unexpected summary:\n%s", out.String())
	}
}

// TestRunBrokenFamilyCampaign: naming a defective family makes the
// campaign fail, shrink, and (with -corpus) write the reproducer.
func TestRunBrokenFamilyCampaign(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := runBG([]string{"fuzz",
		"-seeds", "0:1", "-family", "FZ_MI_double_grant",
		"-sim-steps", "0", "-corpus", dir, "-json", filepath.Join(dir, "report.jsonl"),
	}, &out)
	if err == nil {
		t.Fatalf("broken family campaign must fail:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "FAIL safety") {
		t.Errorf("failure not reported:\n%s", s)
	}
	if !strings.Contains(s, "minimized to") {
		t.Errorf("shrink not reported:\n%s", s)
	}
	b, rerr := os.ReadFile(filepath.Join(dir, "FZ_MI_double_grant.ssp"))
	if rerr != nil {
		t.Fatalf("reproducer not written: %v\n%s", rerr, s)
	}
	if !strings.Contains(string(b), "// kind: SWMR") {
		t.Errorf("reproducer header lacks the expected kind:\n%s", string(b))
	}
	j, rerr := os.ReadFile(filepath.Join(dir, "report.jsonl"))
	if rerr != nil || !strings.Contains(string(j), `"failure"`) {
		t.Errorf("JSONL report missing or empty: %v", rerr)
	}
}

// TestRunJSONToStdoutIsPure: with -json - every stdout line must be
// valid JSON (human lines are suppressed), so `protogen fuzz -json - | jq`
// works.
func TestRunJSONToStdoutIsPure(t *testing.T) {
	var out strings.Builder
	if err := runBG([]string{"fuzz", "-seeds", "0:2", "-sim-steps", "500", "-json", "-", "-v"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 JSONL lines, got %d:\n%s", len(lines), out.String())
	}
	for _, l := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(l), &v); err != nil {
			t.Errorf("non-JSON stdout line %q: %v", l, err)
		}
	}
}

// TestRunReplay: the committed corpus replays clean.
func TestRunReplay(t *testing.T) {
	var out strings.Builder
	if err := runBG([]string{"fuzz", "-replay"}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "corpus entries reproduced") {
		t.Errorf("unexpected replay output:\n%s", out.String())
	}
}

// TestParseSeeds: the range syntax is validated.
func TestParseSeeds(t *testing.T) {
	if a, b, err := parseSeeds("3:9"); err != nil || a != 3 || b != 9 {
		t.Errorf("parseSeeds(3:9) = %d,%d,%v", a, b, err)
	}
	for _, bad := range []string{"", "5", "9:3", "a:b", "4:4"} {
		if _, _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) must error", bad)
		}
	}
}

// TestRunCampaignCacheDir: the acceptance gate at the CLI — a second
// campaign over the same seed range with -cache-dir reports zero
// re-verifications.
func TestRunCampaignCacheDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"fuzz", "-seeds", "0:6", "-sim-steps", "300", "-cache-dir", dir}
	var cold, warm strings.Builder
	if err := runBG(args, &cold); err != nil {
		t.Fatalf("cold run: %v\n%s", err, cold.String())
	}
	if !strings.Contains(cold.String(), "result cache:") || !strings.Contains(cold.String(), "0 hits") {
		t.Errorf("cold run cache line wrong:\n%s", cold.String())
	}
	if err := runBG(args, &warm); err != nil {
		t.Fatalf("warm run: %v\n%s", err, warm.String())
	}
	if !strings.Contains(warm.String(), "0 re-verifications") {
		t.Errorf("warm run re-verified specs:\n%s", warm.String())
	}
}

// TestRunFuzzList: -list prints the fuzz families and the corpus
// without running a campaign.
func TestRunFuzzList(t *testing.T) {
	wantList(t, "fuzz", "FZ_MSI", "FZ_MI_double_grant", "corpus/FZ_MSI_miscounted_acks", "boundary")
}
