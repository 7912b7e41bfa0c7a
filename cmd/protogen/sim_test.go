package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protogen"
)

// TestRunSimulateWorkload: one workload end to end through the CLI path.
func TestRunSimulateWorkload(t *testing.T) {
	var out strings.Builder
	err := runBG([]string{"sim", "-protocol", "MSI", "-workload", "contended", "-steps", "3000", "-caches", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "txns=") {
		t.Errorf("output lacks stats: %s", out.String())
	}
}

// TestRunSimulateFromFile: -file reads an SSP from disk, the glue the
// CLIs now share through protogen.LoadSpec.
func TestRunSimulateFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "msi.ssp")
	if err := os.WriteFile(path, []byte(protogen.BuiltinMSI), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := runBG([]string{"sim", "-file", path, "-workload", "contended", "-steps", "2000", "-caches", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "txns=") {
		t.Errorf("output lacks stats: %s", out.String())
	}
}

// TestRunSimulateCanceled: a canceled context prints the partial stats
// flagged as interrupted, then exits non-zero — the same contract as
// verify and fuzz.
func TestRunSimulateCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{"sim", "-protocol", "MSI", "-workload", "contended", "-steps", "5000000", "-caches", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "canceled after") {
		t.Fatalf("canceled run must error with partial-step report, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "(interrupted; partial)") {
		t.Errorf("partial flag missing: %s", out.String())
	}
}

// TestRunSimErrors: an unknown protocol, workload or mode is an error
// naming it.
func TestRunSimErrors(t *testing.T) {
	wantErr(t, []string{"sim", "-protocol", "NoSuch"}, `unknown protocol "NoSuch"`)
	wantErr(t, []string{"sim", "-workload", "bogus"}, "bogus")
	wantErr(t, []string{"sim", "-mode", "bogus"}, `unknown mode "bogus"`)
}
