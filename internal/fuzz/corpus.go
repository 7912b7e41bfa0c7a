package fuzz

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"protogen/internal/protocols"
)

// The regression corpus: minimized reproducers harvested by past
// campaigns, committed so every future test run replays them. Files are
// canonical DSL preceded by a comment header (see CorpusEntry).
//
//go:embed corpus/*.ssp
var corpusFS embed.FS

// CorpusEntry is one committed reproducer.
type CorpusEntry struct {
	// Name is the file stem, e.g. "FZ_MI_double_grant".
	Name string
	// Family is the shape the reproducer was shrunk from.
	Family string
	// Seed is the campaign seed that found it (0 for directed runs).
	Seed uint64
	// SimSeed is the simulator seed that witnessed the failure; replay
	// must reuse it for schedule-dependent (sim-class) entries.
	SimSeed int64
	// Expect is the failure the replay must still produce.
	Expect Failure
	// Txns is the reproducer's process count at harvest time.
	Txns int
	// Source is the spec itself.
	Source string
}

// header renders the comment block preceding the source.
func (e CorpusEntry) header() string {
	var b strings.Builder
	b.WriteString("// protofuzz minimized reproducer; regenerate with: protofuzz -family " + e.Family + " -shrink\n")
	fmt.Fprintf(&b, "// family: %s\n", e.Family)
	fmt.Fprintf(&b, "// seed: %d\n", e.Seed)
	if e.SimSeed != 0 {
		fmt.Fprintf(&b, "// simseed: %d\n", e.SimSeed)
	}
	fmt.Fprintf(&b, "// class: %s\n", e.Expect.Class)
	fmt.Fprintf(&b, "// kind: %s\n", e.Expect.Kind)
	if e.Expect.Mode != "" {
		fmt.Fprintf(&b, "// mode: %s\n", e.Expect.Mode)
	}
	fmt.Fprintf(&b, "// txns: %d\n", e.Txns)
	return b.String()
}

// Render produces the full corpus file content.
func (e CorpusEntry) Render() string {
	return e.header() + "\n" + strings.TrimLeft(e.Source, "\n")
}

// parseCorpusEntry reads a corpus file back into an entry. Unknown
// header keys are ignored so the format can grow; parsing stops at the
// first non-comment line so annotations inside the spec body can never
// override the header.
func parseCorpusEntry(name, text string) (CorpusEntry, error) {
	e := CorpusEntry{Name: name, Source: text}
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.HasPrefix(line, "//") {
			break // header ends at the first spec line
		}
		if !strings.HasPrefix(line, "// ") {
			continue
		}
		kv := strings.SplitN(strings.TrimPrefix(line, "// "), ":", 2)
		if len(kv) != 2 {
			continue
		}
		val := strings.TrimSpace(kv[1])
		switch strings.TrimSpace(kv[0]) {
		case "family":
			e.Family = val
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return e, fmt.Errorf("corpus %s: bad seed %q", name, val)
			}
			e.Seed = s
		case "simseed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return e, fmt.Errorf("corpus %s: bad simseed %q", name, val)
			}
			e.SimSeed = s
		case "class":
			e.Expect.Class = val
		case "kind":
			e.Expect.Kind = val
		case "mode":
			e.Expect.Mode = val
		case "txns":
			n, err := strconv.Atoi(val)
			if err != nil {
				return e, fmt.Errorf("corpus %s: bad txns %q", name, val)
			}
			e.Txns = n
		}
	}
	if e.Family == "" || e.Expect.Class == "" {
		return e, fmt.Errorf("corpus %s: missing family/class header", name)
	}
	return e, nil
}

// ReplaySimSeed is the simulator seed a replay should use: the recorded
// witness seed for schedule-dependent entries, a fixed default otherwise.
func (e CorpusEntry) ReplaySimSeed() int64 {
	if e.SimSeed != 0 {
		return e.SimSeed
	}
	return 7
}

// Corpus lists the committed reproducers in filename order.
func Corpus() ([]CorpusEntry, error) {
	files, err := corpusFS.ReadDir("corpus")
	if err != nil {
		return nil, err
	}
	var out []CorpusEntry
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".ssp") {
			continue
		}
		b, err := corpusFS.ReadFile("corpus/" + f.Name())
		if err != nil {
			return nil, err
		}
		e, err := parseCorpusEntry(strings.TrimSuffix(f.Name(), ".ssp"), string(b))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// WriteCorpusEntry writes a reproducer into dir, named after the family
// (overwriting any previous reproducer of the same family — the corpus
// keeps the latest minimization per family).
func WriteCorpusEntry(dir string, e CorpusEntry) (string, error) {
	if e.Name == "" {
		e.Name = e.Family
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, e.Name+".ssp")
	return path, os.WriteFile(path, []byte(e.Render()), 0o644)
}

// WriteReproducers is the corpus sink shared by protogen fuzz -corpus and
// the service's fuzz jobs: it writes every minimized reproducer of rep
// into dir ("" disables the sink) and returns the files written, in
// report order. A write failure does not stop the sink (the report
// still carries the reproducer inline); the first one is returned
// beside the files that did land.
func WriteReproducers(dir string, rep *Report) ([]string, error) {
	if dir == "" {
		return nil, nil
	}
	var (
		files []string
		first error
	)
	for i := range rep.Specs {
		r := &rep.Specs[i]
		if r.Minimized == "" {
			continue
		}
		txns, _ := TxnCount(r.Minimized) // the header count is informational; 0 if the source does not parse
		path, err := WriteCorpusEntry(dir, CorpusEntry{
			Family: r.Family, Seed: r.Seed, SimSeed: r.SimSeed,
			Expect: r.Failure, Txns: txns, Source: r.Minimized,
		})
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		files = append(files, path)
	}
	return files, first
}

// Entries lists the registry names the fuzz package owns, after the
// builtins: one exemplar per shipped family, then every corpus
// reproducer as "corpus/<name>", so every verb can address them.
func Entries() ([]protocols.Entry, error) {
	corpus, err := Corpus()
	if err != nil {
		return nil, err
	}
	shapes := Shapes()
	out := make([]protocols.Entry, 0, len(shapes)+len(corpus))
	for _, p := range shapes {
		out = append(out, protocols.Entry{
			Name:   p.Name(),
			Source: p.Source(),
			Paper:  "fuzz family exemplar",
		})
	}
	for _, e := range corpus {
		out = append(out, protocols.Entry{
			Name:   "corpus/" + e.Name,
			Source: e.Source,
			Paper:  fmt.Sprintf("fuzz corpus reproducer (%s, expect %s)", e.Family, e.Expect),
		})
	}
	return out, nil
}
