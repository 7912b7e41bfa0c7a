package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

//go:embed answers.json
var answersJSON []byte

// answers is bench/answers.json: what every op's output is checked
// against. Verdicts come from outside this repository's code and are
// written by hand — the paper's §VI verifies every protocol of its suite,
// and each corpus reproducer's header names the failure class it must keep
// producing. Pins are determinism fingerprints of the current code
// (state-space sizes, generated-protocol sizes, output hashes), recorded
// with -record-answers, one set per benchmark size.
type answers struct {
	Verdicts struct {
		Registry map[string]bool   `json:"registry"`
		Corpus   map[string]string `json:"corpus"`
	} `json:"verdicts"`
	Pins map[string]map[string]any `json:"pins"`
}

func loadAnswers(raw []byte) (*answers, error) {
	var a answers
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // a pinned count compares by its digits, not as a float64
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("answers.json: %w", err)
	}
	return &a, nil
}

// book checks observed values against one size's answers or, under
// -record-answers, collects them. Ops on several goroutines share it.
type book struct {
	ans  *answers
	pins map[string]any

	mu        sync.Mutex
	recording map[string]any // non-nil: record instead of check
	conflicts []string       // verdict mismatches seen while recording
}

func newBook(ans *answers, size string) *book {
	return &book{ans: ans, pins: ans.Pins[size]}
}

// pin checks one determinism fingerprint.
func (b *book) pin(key string, got any) error {
	if b.recording != nil {
		b.mu.Lock()
		b.recording[key] = got
		b.mu.Unlock()
		return nil
	}
	want, ok := b.pins[key]
	if !ok {
		return fmt.Errorf("%s: no recorded answer (run -record-answers)", key)
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		return fmt.Errorf("%s = %v, recorded answer %v", key, got, want)
	}
	return nil
}

// pinAll checks several fingerprints, given as name, value pairs, under
// one prefix and reports the first mismatch.
func (b *book) pinAll(prefix string, kv ...any) error {
	for i := 0; i < len(kv); i += 2 {
		if err := b.pin(prefix+"."+kv[i].(string), kv[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// verdict checks an observed outcome against a hand-written one. While
// recording, a mismatch is remembered and blocks the write: verdicts are
// never overwritten.
func (b *book) verdict(kind, name string, got any) error {
	var want any
	var ok bool
	switch kind {
	case "registry":
		want, ok = b.ans.Verdicts.Registry[name]
	case "corpus":
		want, ok = b.ans.Verdicts.Corpus[name]
	}
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("verdict %s/%s: none recorded", kind, name)
	case want != got:
		err = fmt.Errorf("verdict %s/%s = %v, known answer %v", kind, name, got, want)
	}
	if err != nil && b.recording != nil {
		b.mu.Lock()
		b.conflicts = append(b.conflicts, err.Error())
		b.mu.Unlock()
	}
	return err
}

// recordAnswers runs every workload at each size with a recording book, prints how the pins differ from path's, and rewrites path — unless
// an observed verdict contradicts a recorded one.
func recordAnswers(ans *answers, path string, seed int64, workDir string, all []sizes) error {
	for _, sz := range all {
		b := newBook(ans, sz.name)
		b.recording = map[string]any{}
		e := &env{seed: seed, sz: sz, book: b, dir: workDir}
		for _, w := range workloads() {
			// Set-up, one round pair and the layer probes touch every pin.
			if _, _, _, err := tracedLayers(w, e, &recorder{}, newTracer(time.Now()), 1); err != nil {
				return fmt.Errorf("%s size: %w", sz.name, err)
			}
		}
		if len(b.conflicts) > 0 {
			for _, c := range b.conflicts {
				fmt.Fprintln(os.Stderr, "  "+c)
			}
			return fmt.Errorf("refusing to record: %d observed verdicts contradict the known ones", len(b.conflicts))
		}
		printPinDiff(sz.name, ans.Pins[sz.name], b.recording)
		if ans.Pins == nil {
			ans.Pins = map[string]map[string]any{}
		}
		ans.Pins[sz.name] = b.recording
	}
	out, err := json.MarshalIndent(ans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func printPinDiff(size string, old, now map[string]any) {
	keys := map[string]bool{}
	for k := range old {
		keys[k] = true
	}
	for k := range now {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	changed := 0
	for _, k := range sorted {
		o, inOld := old[k]
		n, inNow := now[k]
		switch {
		case !inOld:
			fmt.Printf("+ %s/%s = %v\n", size, k, n)
		case !inNow:
			fmt.Printf("- %s/%s = %v\n", size, k, o)
		case fmt.Sprint(o) != fmt.Sprint(n):
			fmt.Printf("~ %s/%s: %v -> %v\n", size, k, o, n)
		default:
			continue
		}
		changed++
	}
	fmt.Printf("%s: %d pins, %d changed\n", size, len(now), changed)
}
