// Command bench is the repository's benchmark: five workloads that take
// the system from SSP text to a checked verdict, each run in a process of
// its own. See README.md beside this file.
//
//	bench -workload deep-full -seed 1 -seconds 20 -trace 0   one run, one JSON result line
//	bench -workload all                                      every workload, a child process each
//	bench -repeat 10                                         ten seeds of every workload, spreads against the bounds
//	bench -record-answers                                    re-record the pins in answers.json
//	bench -manifest                                          print BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func workloads() []*workload {
	return []*workload{
		deepWorkload("deep-full",
			"the plain path a first protoverify run takes (one core, exact visited set): engine, the verify merge "+
				"and the exact map do all the work; depend, store and the worker pool do none",
			false),
		deepWorkload("deep-reduced",
			"the production configuration: partial-order reduction, the fingerprint table and the parallel BFS are on "+
				"here and off in deep-full, so a change in any of them shows here and not there",
			true),
		campaignWorkload(),
		serviceWorkload(),
		generateWorkload(),
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workDir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "fixes job order, seed ranges and probe walks")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 makes the separate traced run that reports the per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "scratch directory, inside the checkout")
	repeat := flag.Int("repeat", 0, "run every workload untraced on this many seeds and judge the spreads")
	record := flag.Bool("record-answers", false, "re-record the pins in -answers; never overwrites a verdict")
	answersPath := flag.String("answers", "bench/answers.json", "file -record-answers rewrites")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	// Before Go 1.25 GOMAXPROCS ignores a container's CPU quota; four is
	// what the workloads were sized on at most.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *record:
		var ans *answers
		if ans, err = loadAnswers(answersJSON); err == nil {
			if err = os.MkdirAll(o.workDir, 0o755); err == nil {
				err = recordAnswers(ans, *answersPath, o.seed, o.workDir, []sizes{fullSizes, smallSizes})
			}
		}
	case *repeat > 0:
		err = runRepeat(o, *repeat)
	case o.workload == "all":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its report.
func runOne(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	ans, err := loadAnswers(answersJSON)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	e := &env{seed: o.seed, sz: fullSizes, book: newBook(ans, fullSizes.name), dir: o.workDir}
	fmt.Printf("workload %s  seed=%d  trace=%d  nproc=%d  GOMAXPROCS=%d  %s\n",
		w.name, o.seed, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var out *outcome
	defs := endToEnd
	if o.trace == 0 {
		out, err = runUntraced(w, e, o.seconds)
	} else {
		defs = perLayer
		tracePath := filepath.Join(o.workDir, "trace-"+w.name+".json")
		if out, err = runTraced(w, e, tracePath); err == nil {
			fmt.Printf("  spans written to %s\n", tracePath)
		}
	}
	if err != nil {
		return err
	}

	rep := report{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		x, ok := out.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
		rep.Metrics[d.Name] = metricValue{x, d.Unit}
		fmt.Printf("  %-32s %14.6g %-5s (n=%d)\n", d.Name, x, d.Unit, out.samples)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", out.attempted, out.failed)
	for _, msg := range out.errs {
		fmt.Printf("  FAILED: %s\n", msg)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", w.name, out.failed, out.attempted)
	}
	return nil
}

// child runs one workload in a fresh process, so that rss_mb and the
// heap's state belong to that workload alone, and returns its report.
func child(o options, name string, echo io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace), "-workdir", o.workDir)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no report on the last line: %w", name, err)
	}
	return &rep, nil
}

func runAll(o options) error {
	var bad []string
	for _, w := range workloads() {
		rep, err := child(o, w.name, os.Stdout)
		if err != nil {
			return err
		}
		if !rep.Correct {
			bad = append(bad, w.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("wrong answers in %s", strings.Join(bad, ", "))
	}
	return nil
}

// runRepeat runs every workload untraced on seeds seed..seed+n-1 and
// prints, per workload and metric, the n readings, their median and their
// quartile spread, judged against half the metric's bound.
func runRepeat(o options, n int) error {
	o.trace = 0
	values := map[string]map[string][]float64{} // workload → metric → readings
	for i := 0; i < n; i++ {
		for _, w := range workloads() {
			run := o
			run.seed = o.seed + int64(i)
			fmt.Fprintf(os.Stderr, "repeat %d/%d: %s seed %d\n", i+1, n, w.name, run.seed)
			rep, err := child(run, w.name, io.Discard)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, run.seed, rep.Failed, rep.Attempted)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range rep.Metrics {
				values[w.name][name] = append(values[w.name][name], v.Value)
			}
		}
	}
	failed := 0
	for _, w := range workloads() {
		for _, d := range endToEnd {
			xs := values[w.name][d.Name]
			spread := quartileSpread(xs)
			verdict := "PASS"
			// setup_s is judged on its median between two sets, not on
			// its spread within one.
			if d.Name != "setup_s" && spread > d.Bound/2 {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-15s %-15s median %12.6g %-4s spread %6.2f%% of bound %4.0f%%  %s  %s\n",
				w.name, d.Name, median(xs), d.Unit, 100*spread, 100*d.Bound, verdict, formatReadings(xs))
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d spreads exceed half their bound", failed)
	}
	return nil
}

func formatReadings(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printManifest writes BENCHMARK.json.
func printManifest(w io.Writer) error {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 20,
		EndToEnd:   endToEnd,
	}
	for _, wl := range workloads() {
		m.Workloads = append(m.Workloads, workloadDef{wl.name, wl.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}
