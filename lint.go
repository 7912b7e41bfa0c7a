package protogen

// This file is the lint surface of the root API: LintJob runs the
// internal/analyze static analyzer over a spec and its generated
// protocols without any state exploration, producing one Report per
// layer. cmd/protolint, the verification service's "lint" job kind and
// protoverify's pre-exploration lint all sit on this entry point.

import (
	"context"
	"fmt"

	"protogen/internal/analyze"
	"protogen/internal/core"
	"protogen/internal/depend"
	"protogen/internal/ir"
)

// Lint-layer types re-exported at the root, mirroring the other
// subsystem aliases in protogen.go.
type (
	// LintReport is one layer's findings (spec, or one generated mode).
	LintReport = analyze.Report
	// LintDiagnostic is a single coded finding.
	LintDiagnostic = analyze.Diagnostic
	// LintSeverity ranks a finding (info / warning / error).
	LintSeverity = analyze.Severity
)

// Severity levels re-exported at the root, mirroring analyze's ladder.
const (
	LintInfo    = analyze.SevInfo
	LintWarning = analyze.SevWarning
	LintError   = analyze.SevError
)

// LintJob statically analyzes one subject. Exactly one of Protocol,
// Spec or Source selects it (as in VerifyJob). Spec/Source subjects are
// linted at the spec layer and then generated and linted once per
// requested mode; Protocol subjects get a single protocol-layer report.
type LintJob struct {
	// Protocol is an already-generated protocol (protocol layer only).
	Protocol *Protocol
	// Spec is a parsed SSP.
	Spec *Spec
	// Source is SSP DSL text.
	Source string

	// Modes are the generation modes to lint at the protocol layer; nil
	// means Modes, all three in campaign order. An explicit empty
	// non-nil slice restricts the job to the spec layer.
	Modes []string
	// Codes keeps only diagnostics with these codes (e.g. "PG104");
	// empty keeps everything.
	Codes []string
}

// LintResult aggregates the per-layer reports of one job.
type LintResult struct {
	// Reports holds one entry for the spec layer (Spec/Source subjects)
	// plus one per generated mode.
	Reports []*LintReport `json:"reports"`
	// Errors / Warnings / Infos are totals across all reports.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

// Clean reports whether every layer linted clean (no errors and no
// warnings; info notes allowed).
func (r *LintResult) Clean() bool { return r.Errors == 0 && r.Warnings == 0 }

// Broken reports whether some layer has a statically provable defect.
func (r *LintResult) Broken() bool { return r.Errors > 0 }

// Verdict summarizes the job: "broken", "suspect" or "clean".
func (r *LintResult) Verdict() string {
	switch {
	case r.Errors > 0:
		return "broken"
	case r.Warnings > 0:
		return "suspect"
	}
	return "clean"
}

// Summary renders the one-line outcome shown by the CLI and the
// verification service's job view.
func (r *LintResult) Summary() string {
	return fmt.Sprintf("lint %s: %d errors, %d warnings, %d infos across %d layers",
		r.Verdict(), r.Errors, r.Warnings, r.Infos, len(r.Reports))
}

func (r *LintResult) absorb(rep *LintReport) {
	r.Reports = append(r.Reports, rep)
	r.Errors += rep.Errors
	r.Warnings += rep.Warnings
	r.Infos += rep.Infos
}

// Lint runs a lint job under ctx. Analysis itself never explores
// states and finishes in milliseconds; ctx is still observed between
// generation modes so a canceled service job stops promptly.
func (e *Engine) Lint(ctx context.Context, job LintJob) (*LintResult, error) {
	spec, proto, _, err := resolveSubject(job.Protocol, job.Spec, job.Source, "", nil, 0)
	if err != nil {
		return nil, err
	}

	var filter map[ir.Code]bool
	if len(job.Codes) > 0 {
		filter = make(map[ir.Code]bool, len(job.Codes))
		for _, c := range job.Codes {
			filter[ir.Code(c)] = true
		}
	}
	res := &LintResult{}
	if proto != nil {
		res.absorb(analyze.CheckProtocol(proto, "").Filter(filter))
		return res, nil
	}
	specRep := analyze.CheckSpec(spec)
	res.absorb(specRep.Filter(filter))
	if specRep.Broken() {
		// The spec failed validation or is statically hung; generated
		// layers would only repeat the story.
		return res, nil
	}
	modes := job.Modes
	if modes == nil {
		modes = Modes
	}
	for _, mode := range modes {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		opts, err := core.OptionsForMode(mode)
		if err != nil {
			return nil, err
		}
		p, err := core.Generate(spec, opts)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", mode, err)
		}
		res.absorb(analyze.CheckProtocol(p, mode).Filter(filter))
	}
	return res, nil
}

// DependStats is the rule-dependence statistics record of one generated
// protocol: class counts, how many cache classes are invisible to the
// checked invariants and how many are collapse-fusible, id-tainted
// variables, and the protocol-level facts that disable partial-order
// reduction. Marshals directly to JSON (protolint -dep-stats).
type DependStats = depend.Stats

// DependStatsFor runs the static rule-dependence analysis
// (internal/depend) over a generated protocol and returns its
// statistics — the machine-checkable summary of what the checker's
// partial-order reduction (VerifyConfig.Reduce) may fuse.
func DependStatsFor(p *Protocol) DependStats { return depend.New(p).Stats }
