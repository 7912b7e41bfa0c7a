package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"protogen/internal/analyze"
	"protogen/internal/core"
	"protogen/internal/depend"
	"protogen/internal/dsl"
	"protogen/internal/fuzz"
	"protogen/internal/murphi"
	"protogen/internal/protocols"
)

// generateWorkload pushes SSP texts through the front end, one text per op.
func generateWorkload() *workload {
	return &workload{
		name: "generate-sweep",
		why: "the paper's own contribution, generation from an SSP (§VI-E), is under 2 % of any other workload: " +
			"here parse, generate, lint, depend and emit are all there is",
		setupReps:   3,
		minRounds:   1,
		tracedPairs: 15,
		tailPct:     99, // ~2,700 samples a run: twenty-seven lie beyond p99
		setup:       setupGenerate,
	}
}

type ssp struct{ name, src string }

// sweepTexts is every registry protocol and every shipped and boundary
// fuzz family; the boundary ones include texts generation rejects.
func sweepTexts(subset bool) []ssp {
	var texts []ssp
	for _, e := range protocols.All {
		texts = append(texts, ssp{e.Name, e.Source})
	}
	for _, shapes := range [][]fuzz.Params{fuzz.Shapes(), fuzz.BoundaryShapes()} {
		for _, p := range shapes {
			texts = append(texts, ssp{p.Name(), p.Source()})
		}
	}
	if !subset {
		return texts
	}
	// A registry protocol, the smallest family and a text generation rejects.
	var few []ssp
	for _, t := range texts {
		if t.name == "MSI" || t.name == "FZ_MI" || t.name == "FZ_MSI_silent" {
			few = append(few, t)
		}
	}
	return few
}

type generate struct {
	e     *env
	texts []ssp
	// From traced ops: totals over the traced sweeps.
	sweeps                                  int
	srcBytes, states, transitions, findings int
	fusible, invisible, murphiBytes         int
}

func setupGenerate(e *env, rec *recorder) (instance, error) {
	g := &generate{e: e, texts: sweepTexts(e.sz.generateSubset)}
	warm := &recorder{}
	for i := 0; i < e.sz.generateWarmup; i++ {
		g.round(-1-i, warm)
	}
	rec.absorbUntimed(warm)
	return g, nil
}

func (g *generate) round(i int, rec *recorder) {
	order := rand.New(rand.NewSource(g.e.seed*1_000_003 + int64(i))).Perm(len(g.texts))
	for _, j := range order {
		rec.op(func(op int) error { return g.text(g.texts[j], rec.tr, op) })
	}
	if rec.tr != nil {
		g.sweeps++
	}
}

// text takes one SSP from source to every generated artefact and checks
// each against the answers.
func (g *generate) text(t ssp, tr *tracer, op int) error {
	book := g.e.book
	sp := tr.begin("dsl.Parse", op)
	spec, err := dsl.Parse(t.src)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	sp = tr.begin("analyze.CheckSpec", op)
	specReport := analyze.CheckSpec(spec)
	tr.end(sp)
	if err := book.pin("generate."+t.name+".spec_findings", len(specReport.Diags)); err != nil {
		return err
	}
	if tr != nil {
		g.srcBytes += len(t.src)
		g.findings += len(specReport.Diags)
	}

	for _, mode := range fuzz.Modes {
		opts, err := core.OptionsForMode(mode)
		if err != nil {
			return err
		}
		key := "generate." + t.name + "." + mode
		sp = tr.begin("core.Generate."+mode, op)
		p, err := core.Generate(spec, opts)
		tr.end(sp)
		if err := book.pin(key+".rejected", err != nil); err != nil {
			return err
		}
		if err != nil {
			continue
		}

		sp = tr.begin("analyze.CheckProtocol", op)
		report := analyze.CheckProtocol(p, mode)
		tr.end(sp)
		sp = tr.begin("depend.New", op)
		dep := depend.New(p)
		tr.end(sp)
		sp = tr.begin("murphi.Emit", op)
		model := murphi.Emit(p, murphi.DefaultOptions())
		tr.end(sp)
		sp = tr.begin("dsl.FormatProtocol", op)
		text := dsl.FormatProtocol(p)
		tr.end(sp)

		sp = tr.begin("bench.check", op)
		hash := sha256.Sum256([]byte(text))
		cs, ct, _ := p.Cache.Counts()
		ds, dt, _ := p.Dir.Counts()
		err = book.pinAll(key,
			"states", cs+ds, "transitions", ct+dt, "findings", len(report.Diags),
			"fusible", dep.Stats.Fusible, "invisible", dep.Stats.Invisible,
			"murphi_bytes", len(model), "format_sha256", hex.EncodeToString(hash[:]))
		tr.end(sp)
		if err != nil {
			return err
		}
		if tr != nil {
			g.states += cs + ds
			g.transitions += ct + dt
			g.findings += len(report.Diags)
			g.fusible += dep.Stats.Fusible
			g.invisible += dep.Stats.Invisible
			g.murphiBytes += len(model)
		}
	}
	return nil
}

// layers reports span medians per call and, as exact counts, the totals of
// one sweep.
func (g *generate) layers(_ *recorder, tr *tracer) (map[string]float64, error) {
	if g.sweeps == 0 {
		return nil, fmt.Errorf("generate-sweep: no traced sweep")
	}
	per := func(total int) float64 { return float64(total) / float64(g.sweeps) }
	parse := durations(tr.spans, "dsl.Parse")
	m := map[string]float64{
		"dsl.parse_s":                median(parse),
		"dsl.parse_mb_per_s":         float64(g.srcBytes) / 1e6 / sum(parse),
		"dsl.format_s":               median(durations(tr.spans, "dsl.FormatProtocol")),
		"core.generated_states":      per(g.states),
		"core.generated_transitions": per(g.transitions),
		"analyze.spec_s":             median(durations(tr.spans, "analyze.CheckSpec")),
		"analyze.protocol_s":         median(durations(tr.spans, "analyze.CheckProtocol")),
		"analyze.findings":           per(g.findings),
		"depend.new_s":               median(durations(tr.spans, "depend.New")),
		"depend.fusible_classes":     per(g.fusible),
		"depend.invisible_classes":   per(g.invisible),
		"murphi.emit_s":              median(durations(tr.spans, "murphi.Emit")),
		"murphi.emit_bytes":          per(g.murphiBytes),
	}
	for _, mode := range fuzz.Modes {
		m["core.generate_s."+mode] = median(durations(tr.spans, "core.Generate."+mode))
	}
	return m, nil
}

func (g *generate) close() error { return nil }
