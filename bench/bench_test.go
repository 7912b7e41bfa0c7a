package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The self-test runs everything at smallSizes and asserts no timing.

func testEnv(t *testing.T, mutate func(*answers)) *env {
	t.Helper()
	ans, err := loadAnswers(answersJSON)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(ans)
	}
	return &env{seed: 7, sz: smallSizes, book: newBook(ans, smallSizes.name), dir: t.TempDir()}
}

func TestEveryWorkloadRunsAndChecks(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			out, err := runUntraced(w, testEnv(t, nil), 0)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted <= out.samples || out.samples == 0 {
				t.Fatalf("attempted %d (timed %d), failed %d: %v", out.attempted, out.samples, out.failed, out.errs)
			}
			for _, d := range endToEnd {
				if x, ok := out.metrics[d.Name]; !ok || !(x > 0) {
					t.Errorf("%s = %v, want a positive reading", d.Name, x)
				}
			}
		})
	}
}

// Every kind of answer check must fire on a planted wrong answer, and the
// failed op must be counted, not dropped.
func TestPlantedWrongAnswerFailsOps(t *testing.T) {
	pin := func(key string, v any) func(*answers) {
		return func(a *answers) {
			if _, ok := a.Pins[smallSizes.name][key]; !ok {
				panic("no pin " + key)
			}
			a.Pins[smallSizes.name][key] = v
		}
	}
	plants := []struct {
		workload string
		what     string
		mutate   func(*answers)
	}{
		{"deep-full", "state count", pin("deep-full.states", 1)},
		{"deep-full", "registry verdict", func(a *answers) { a.Verdicts.Registry["MSI"] = false }},
		{"deep-reduced", "reduction counter", pin("deep-reduced.fused_steps", 1)},
		{"campaign", "corpus failure class", func(a *answers) { a.Verdicts.Corpus["FZ_MI_double_grant"] = "liveness" }},
		{"service-burst", "cached result", pin("service.MSI.stalling.states", 1)},
		{"service-burst", "registry verdict", func(a *answers) { a.Verdicts.Registry["TSO_CC"] = false }},
		{"generate-sweep", "output hash", pin("generate.MSI.deferred.format_sha256", "00")},
		{"generate-sweep", "rejection", pin("generate.FZ_MSI_silent.stalling.rejected", false)},
		{"generate-sweep", "missing pin", func(a *answers) { delete(a.Pins[smallSizes.name], "generate.FZ_MI.spec_findings") }},
	}
	for _, p := range plants {
		t.Run(p.workload+"/"+p.what, func(t *testing.T) {
			out, err := runUntraced(workloadByName(p.workload), testEnv(t, p.mutate), 0)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed == 0 || len(out.errs) == 0 {
				t.Fatalf("planted wrong %s went unnoticed over %d ops", p.what, out.attempted)
			}
			if out.failed > out.attempted {
				t.Fatalf("failed %d of %d attempted", out.failed, out.attempted)
			}
		})
	}
}

func TestRecordAnswersNeverOverwritesAVerdict(t *testing.T) {
	e := testEnv(t, func(a *answers) { a.Verdicts.Corpus["FZ_MI_double_grant"] = "liveness" })
	path := filepath.Join(t.TempDir(), "answers.json")
	err := recordAnswers(e.book.ans, path, e.seed, e.dir, []sizes{smallSizes})
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("err = %v, want a refusal", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("answers were written despite the refusal")
	}

	// With agreeing verdicts it reproduces the committed pins.
	e = testEnv(t, nil)
	if err := recordAnswers(e.book.ans, path, e.seed, e.dir, []sizes{smallSizes}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loadAnswers(raw)
	if err != nil {
		t.Fatal(err)
	}
	committed, _ := loadAnswers(answersJSON)
	want, _ := json.Marshal(committed.Pins[smallSizes.name])
	got, _ := json.Marshal(again.Pins[smallSizes.name])
	if !bytes.Equal(want, got) {
		t.Errorf("re-recorded small pins differ from the committed ones:\n got %s\nwant %s", got, want)
	}
}

// A traced run of any workload reports every per-layer metric, and its
// trace is a forest of well-nested spans whose self times add up.
func TestTracedRunReportsEveryLayerAndNestsSpans(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			out, err := runTraced(w, testEnv(t, nil), tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Fatalf("failed %d: %v", out.failed, out.errs)
			}
			for _, d := range perLayer {
				if x, ok := out.metrics[d.Name]; !ok || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Errorf("%s = %v (measured: %t)", d.Name, x, ok)
				}
			}
			if len(out.metrics) != len(perLayer) {
				t.Errorf("%d metrics measured, %d declared", len(out.metrics), len(perLayer))
			}

			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			checkSpans(t, tf.Spans)
		})
	}
}

func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	self := selfTimes(spans)
	perOp := map[int]int64{}
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		switch {
		case s.Parent == -1:
			if s.Op != i || s.Name != "op" {
				t.Fatalf("root span %d: op %d, name %s", i, s.Op, s.Name)
			}
		case s.Parent < 0 || s.Parent >= i:
			t.Fatalf("span %d: parent %d is not an earlier span", i, s.Parent)
		default:
			p := spans[s.Parent]
			if p.Op != s.Op {
				t.Fatalf("span %d belongs to op %d, its parent to op %d", i, s.Op, p.Op)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if self[i] < 0 {
			t.Fatalf("span %d (%s): self time %d < 0", i, s.Name, self[i])
		}
		perOp[s.Op] += self[i]
	}
	for op, total := range perOp {
		if d := spans[op].End - spans[op].Start; total != d {
			t.Fatalf("op %d: self times sum to %d ns, the op span is %d ns", op, total, d)
		}
	}
}

func TestTracerMergeRebasesIndices(t *testing.T) {
	epoch := time.Now()
	a, b := newTracer(epoch), newTracer(epoch)
	for _, tr := range []*tracer{a, b} {
		op := tr.begin("op", -1)
		tr.end(tr.begin("child", op))
		tr.end(op)
	}
	a.merge(b)
	checkSpans(t, a.spans)
	if got := a.spans[3]; got.Parent != 2 || got.Op != 2 {
		t.Fatalf("merged child = %+v", got)
	}
	var off *tracer
	if id := off.begin("op", -1); id != -1 {
		t.Fatalf("nil tracer began span %d", id)
	}
	off.end(-1)
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartileSpread([]float64{4, 1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("spread = %v, want 1.5", got)
	}
}

// BENCHMARK.json is printed from the Go tables; the committed file must
// be that print and must fit the driver's limits.
func TestManifestIsCommitted(t *testing.T) {
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("BENCHMARK.json is not `bench -manifest`'s output; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming limits or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	for _, w := range workloads() {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why (%d chars) breaks the limits", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}
