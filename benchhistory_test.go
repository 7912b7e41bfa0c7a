package protogen_test

import (
	"bufio"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchHistoryLines: BENCH_history.jsonl is the per-PR trajectory
// of the benchmark BENCHMARK.json declares, so every line must say
// which commit it measured (an abbreviated hash, not a PR label that
// names no tree) and name a workload and a metric that file knows.
func TestBenchHistoryLines(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var decl struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		metrics[m.Name] = true
	}

	f, err := os.Open("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	commit := regexp.MustCompile(`^[0-9a-f]{7}$`)
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		n++
		var line struct {
			Commit, Workload, Metric string
			N                        int
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Errorf("line %d: %v", n, err)
			continue
		}
		if !commit.MatchString(line.Commit) {
			t.Errorf("line %d: commit %q is not a 7-hex id", n, line.Commit)
		}
		if !workloads[line.Workload] {
			t.Errorf("line %d: workload %q is not in BENCHMARK.json", n, line.Workload)
		}
		if !metrics[line.Metric] {
			t.Errorf("line %d: metric %q is not in BENCHMARK.json", n, line.Metric)
		}
		if line.N < 1 {
			t.Errorf("line %d: n = %d readings", n, line.N)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("BENCH_history.jsonl is empty")
	}
}
