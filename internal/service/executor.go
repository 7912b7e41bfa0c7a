package service

import (
	"context"
	"fmt"
	"time"

	"protogen"
)

// engineExecutor adapts the shared Engine onto the Executor contract:
// one call runs one attempt of one job kind to completion. Engine
// failures are deterministic — a bad spec, an engine error or a
// checker panic recurs on every attempt — so every failure is terminal
// on the attempt it happens in. A job is rerun only when the process
// died under it.
func engineExecutor(eng *protogen.Engine, corpusDir string) Executor {
	return func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		sink := func(ev protogen.ProgressEvent) { onProgress(*viewOf(ev, time.Now())) }
		switch req.Kind {
		case "verify":
			return execVerify(ctx, eng, req, sink)
		case "fuzz":
			return execFuzz(ctx, eng, req, sink, corpusDir)
		case "lint":
			return execLint(ctx, eng, req)
		case "simulate":
			return execSimulate(ctx, eng, req, sink)
		case "litmus":
			return execLitmus(ctx, eng, req, sink)
		}
		return failed(fmt.Errorf("unknown job kind %q", req.Kind))
	}
}

// failed is a failure outcome.
func failed(err error) Outcome {
	return Outcome{Status: StatusFailed, Err: err}
}

// doneOutcome maps a completed engine run onto done or canceled.
func doneOutcome(summary string, ok bool, canceled bool, result any) Outcome {
	ok = ok && !canceled
	out := Outcome{
		Status:   StatusDone,
		Summary:  summary,
		OK:       &ok,
		Canceled: canceled,
		Result:   result,
	}
	if canceled {
		out.Status = StatusCanceled
	}
	return out
}

func execVerify(ctx context.Context, eng *protogen.Engine, req Request, sink protogen.ProgressFunc) Outcome {
	job, err := verifyJob(req)
	if err != nil {
		return failed(err)
	}
	job.OnProgress = sink
	res, err := eng.Verify(ctx, job)
	if err == nil && res == nil {
		err = fmt.Errorf("verify returned no result")
	}
	if err != nil {
		return failed(err)
	}
	return verifyOutcome(res)
}

// verifyJob is the engine job for a verify request. The subject goes as
// source text, the registry entry's or the inline one, so the engine's
// raw-text index finds a resubmit's cache entry without parsing it.
func verifyJob(req Request) (protogen.VerifyJob, error) {
	src := req.Source
	if src == "" {
		e, ok := protogen.LookupBuiltin(req.Protocol)
		if !ok {
			return protogen.VerifyJob{}, fmt.Errorf("unknown protocol %q", req.Protocol)
		}
		src = e.Source
	}
	return protogen.VerifyJob{
		Source:       src,
		Mode:         req.Mode,
		PendingLimit: req.Limit,
		Config:       verifyConfigFor(req),
		NoCache:      req.NoCache,
	}, nil
}

// verifyOutcome is the outcome of a verify job that came back with res,
// whether a runner ran it or the submit answered it from the cache.
func verifyOutcome(res *protogen.VerifyResult) Outcome {
	out := doneOutcome(res.String(), res.OK(), res.Canceled, res)
	out.Cached = res.Cached
	return out
}

func execFuzz(ctx context.Context, eng *protogen.Engine, req Request, sink protogen.ProgressFunc, corpusDir string) Outcome {
	cfg := protogen.DefaultFuzzConfig()
	cfg.Families = req.Families
	cfg.Caches = req.Caches
	if req.MaxStates > 0 {
		cfg.MaxStates = req.MaxStates
	}
	if req.SimSteps != nil {
		cfg.SimSteps = *req.SimSteps
	}
	if req.Shrink != nil {
		cfg.Shrink = *req.Shrink
	}
	rep, err := eng.Fuzz(ctx, protogen.FuzzJob{
		First: req.First, Last: req.Last,
		Config:     &cfg,
		OnProgress: sink,
	})
	if err != nil {
		return failed(err)
	}
	out := doneOutcome(rep.Summary(), rep.Fail == 0, rep.Canceled, rep)
	// A reproducer that fails to land is still carried inline by the report.
	out.CorpusFiles, _ = protogen.WriteFuzzReproducers(corpusDir, rep)
	return out
}

func execLint(ctx context.Context, eng *protogen.Engine, req Request) Outcome {
	spec, err := subjectSpec(req)
	if err != nil {
		return failed(err)
	}
	lj := protogen.LintJob{Spec: spec, Codes: req.Codes}
	switch {
	case req.SpecOnly:
		lj.Modes = []string{}
	case req.Mode != "":
		lj.Modes = []string{req.Mode}
	}
	res, err := eng.Lint(ctx, lj)
	if err != nil {
		return failed(err)
	}
	return doneOutcome(res.Summary(), res.Clean(), false, res)
}

func execSimulate(ctx context.Context, eng *protogen.Engine, req Request, sink protogen.ProgressFunc) Outcome {
	wl, err := protogen.WorkloadByName(req.Workload)
	if err != nil {
		return failed(err)
	}
	spec, err := subjectSpec(req)
	if err != nil {
		return failed(err)
	}
	st, err := eng.Simulate(ctx, protogen.SimulateJob{
		Spec:         spec,
		Mode:         req.Mode,
		PendingLimit: req.Limit,
		Config: protogen.SimConfig{
			Caches: req.Caches, Steps: req.Steps, Seed: req.Seed, Workload: wl,
		},
		OnProgress: sink,
	})
	if err != nil {
		return failed(err)
	}
	return doneOutcome(st.String(), st.SCViolations == 0, st.Canceled, &st)
}

func execLitmus(ctx context.Context, eng *protogen.Engine, req Request, sink protogen.ProgressFunc) Outcome {
	spec, err := subjectSpec(req)
	if err != nil {
		return failed(err)
	}
	rep, err := eng.Litmus(ctx, protogen.LitmusJob{
		Spec:         spec,
		Mode:         req.Mode,
		PendingLimit: req.Limit,
		Tests:        req.Tests,
		Axiom:        req.Axiom,
		Exhaustive:   req.Exhaustive,
		Runs:         req.Runs,
		Seed:         req.Seed,
		Caches:       req.Caches,
		MaxStates:    req.MaxStates,
		OnProgress:   sink,
	})
	if err != nil {
		return failed(err)
	}
	return doneOutcome(rep.Summary(), len(rep.Failures()) == 0, rep.Canceled, rep)
}

// subjectSpec resolves the request's subject: a registry name or inline
// source.
func subjectSpec(req Request) (*protogen.Spec, error) {
	if req.Source != "" {
		return protogen.Parse(req.Source)
	}
	return protogen.LoadSpec(req.Protocol, "")
}

// verifyConfigFor lays request tuning over the default checker config;
// a zero Caches stays zero, which the engine reads as its default.
func verifyConfigFor(req Request) *protogen.VerifyConfig {
	cfg := protogen.DefaultVerifyConfig()
	cfg.Caches = req.Caches
	if req.MaxStates > 0 {
		cfg.MaxStates = req.MaxStates
	}
	cfg.Fingerprint = req.Fingerprint
	cfg.Reduce = req.Reduce
	return &cfg
}
