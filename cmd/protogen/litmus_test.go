package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunExhaustiveMSI: the default path — exhaustive oracle on a
// registry protocol, exact outcome sets, zero forbidden.
func TestRunExhaustiveMSI(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"litmus", "-protocol", "MSI", "-test", "MP,SB,CoRR"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"3 tests, 0 failing", "MP", "SB", "CoRR", "allowed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunWeakRelaxations: TSO_CC under its default weak axiom must
// show the MP stale read as relaxed, never forbidden.
func TestRunWeakRelaxations(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"litmus", "-protocol", "TSO_CC", "-test", "MP"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "relaxed") || strings.Contains(out.String(), "FAIL") {
		t.Errorf("TSO_CC MP should relax, not fail:\n%s", out.String())
	}
}

// TestRunJSON: -json emits a decodable structured report.
func TestRunJSON(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"litmus", "-protocol", "MSI", "-test", "CoRR", "-runs", "200", "-json"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep struct {
		Subjects []struct {
			Name   string `json:"name"`
			Report struct {
				Results []struct {
					Test     string `json:"test"`
					Complete bool   `json:"complete"`
					Runs     int    `json:"runs"`
				} `json:"results"`
			} `json:"report"`
		} `json:"subjects"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("decode: %v\n%s", err, out.String())
	}
	if len(rep.Subjects) != 1 || len(rep.Subjects[0].Report.Results) != 1 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	r := rep.Subjects[0].Report.Results[0]
	if r.Test != "CoRR" || !r.Complete || r.Runs != 200 {
		t.Fatalf("CoRR result: %+v", r)
	}
}

// TestRunLitmusList: -list prints the litmus catalog.
func TestRunLitmusList(t *testing.T) {
	wantList(t, "litmus", "MP", "IRIW", "2+2W", "message passing")
}

// TestRunLitmusBadFlags: an unknown test, and sampling without -runs,
// are errors.
func TestRunLitmusBadFlags(t *testing.T) {
	wantErr(t, []string{"litmus", "-test", "NoSuch"}, "NoSuch")
	wantErr(t, []string{"litmus", "-exhaustive=false"}, "-exhaustive=false needs -runs")
}
