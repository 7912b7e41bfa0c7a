package core

import (
	"fmt"

	"protogen/internal/ir"
)

// Generate runs the full ProtoGen pipeline on an SSP and returns the
// complete concurrent protocol: cache and directory finite state machines
// with all transient states, transient auxiliary behavior (deferred
// obligations) and per-state access permissions.
func Generate(spec *ir.Spec, opts Options) (*ir.Protocol, error) {
	if err := ir.ValidateSpec(spec); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if opts.PendingLimit < 0 {
		return nil, fmt.Errorf("generate: negative pending limit")
	}
	spec = spec.Clone()

	cls := classes(spec.Cache)
	renames, err := preprocess(spec, cls)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	fwds, err := fwdTable(spec, cls)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	if err := validateFwdCoverage(cls, fwds); err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}

	g := &gen{
		spec:       spec,
		opts:       opts,
		cls:        cls,
		fwds:       fwds,
		dataM:      dataMsgs(spec),
		cache:      ir.NewMachine("cache", ir.KindCache),
		dir:        ir.NewMachine("directory", ir.KindDirectory),
		positions:  map[string]*position{},
		rootPos:    map[string]*position{},
		byKey:      map[stateKey]ir.StateName{},
		putAck:     map[ir.MsgType]ir.MsgType{},
		reinterp:   map[ir.MsgType]ir.MsgType{},
		usedAcc:    map[ir.AccessType]bool{},
		staleRoots: map[string]ir.StateName{},
	}
	g.p = &ir.Protocol{
		Name:        spec.Name,
		Ordered:     spec.Ordered,
		Msgs:        append([]ir.MsgDecl(nil), spec.Msgs...),
		Cache:       g.cache,
		Dir:         g.dir,
		Renames:     renames,
		Reinterpret: map[ir.MsgType]ir.MsgType{},
		Classes:     cls,
		OptsNote:    opts.Note(),
	}

	if err := g.computePutAcks(); err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	if err := g.expandCache(); err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	if err := g.processQueue(); err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	g.lateFwdPass()
	g.staleFwdPass()
	g.permissions()
	mergeStates(g.cache)
	if err := g.generateDirectory(); err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	mergeStates(g.dir)

	if err := ir.ValidateProtocol(g.p); err != nil {
		return nil, fmt.Errorf("generate %s: validation failed: %w", spec.Name, err)
	}
	return g.p, nil
}

// validateFwdCoverage checks that every forwarded request has a handler at
// every member of its home class — otherwise a cache in the uncovered
// member could receive a message it cannot interpret.
func validateFwdCoverage(cls map[ir.StateName]ir.StateName, fwds map[ir.MsgType]*fwdInfo) error {
	for f, fi := range fwds {
		for s, rep := range cls {
			if rep != fi.home {
				continue
			}
			if fi.handlers[s] == nil {
				return fmt.Errorf("forwarded request %s arrives at class %s but has no handler at member state %s", f, fi.home, s)
			}
		}
	}
	return nil
}
