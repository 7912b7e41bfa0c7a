package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestDepStatsGolden pins the -dep-stats JSONL output for stalling MSI:
// one line per (subject, mode), and the stalling line's statistics match
// the internal/depend goldens (also pinned in that package's tests).
func TestDepStatsGolden(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"lint", "-protocol", "MSI", "-dep-stats", "-mode", "stalling"}, &buf); err != nil {
		t.Fatal(err)
	}
	var line depStatsLine
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &line); err != nil {
		t.Fatalf("not one JSON line: %v\n%s", err, buf.String())
	}
	if line.Name != "MSI" || line.Mode != "stalling" {
		t.Fatalf("wrong subject: %+v", line)
	}
	s := line.Stats
	if s.Classes != 47 || s.CacheClasses != 34 || s.Invisible != 15 ||
		s.Fusible != 20 || s.IDVars != 1 || s.UnsafeFacts != 0 {
		t.Errorf("stats drifted: %+v", s)
	}
	if s.Reasons["performs-access"] != 8 {
		t.Errorf("reasons histogram drifted: %v", s.Reasons)
	}
}

// TestDepStatsAllModes: without -mode, every subject reports all three
// generation modes, in order.
func TestDepStatsAllModes(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"lint", "-protocol", "MSI", "-dep-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSONL lines, got %d:\n%s", len(lines), buf.String())
	}
	for i, want := range []string{"stalling", "nonstalling", "deferred"} {
		var line depStatsLine
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatal(err)
		}
		if line.Mode != want || line.Stats.CacheClasses == 0 {
			t.Errorf("line %d: mode %q stats %+v, want mode %q", i, line.Mode, line.Stats, want)
		}
	}
}

// TestPG3xxSurface: the dependence diagnostics reach the normal lint
// output — PG302 names pessimized classes with their reasons, PG303
// carries the one-line summary — and both are info severity (the
// registry still lints clean).
func TestPG3xxSurface(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"lint", "-protocol", "MSI", "-mode", "stalling", "-code", "PG302,PG303", "-v"}, &buf); err != nil {
		t.Fatalf("registry protocol linted unclean under PG3xx: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "PG302") || !strings.Contains(out, "invariant-visible") {
		t.Errorf("PG302 class diagnostics missing:\n%s", out)
	}
	if !strings.Contains(out, "PG303") || !strings.Contains(out, "fusible") {
		t.Errorf("PG303 summary missing:\n%s", out)
	}
}

// TestDepStatsRejectsSpecOnly: -dep-stats needs the generated machines,
// so -spec-only with it is an error.
func TestDepStatsRejectsSpecOnly(t *testing.T) {
	wantErr(t, []string{"lint", "-protocol", "MSI", "-dep-stats", "-spec-only"}, "spec-only")
}
