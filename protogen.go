// Package protogen is a from-scratch Go reproduction of ProtoGen (Oswald,
// Nagarajan, Sorin — ISCA 2018): a generator that takes the atomic
// stable-state specification (SSP) of a directory cache coherence protocol
// and produces the complete concurrent protocol — every transient state of
// the cache and directory controllers, deferred-response bookkeeping, and
// per-state access permissions — together with the machinery the paper's
// evaluation needs: an explicit-state model checker (the Murphi role), a
// Murphi source backend, a randomized-schedule simulator, a weak-memory
// litmus oracle, paper-style table rendering, and a primer-baseline diff
// engine.
//
// Quick start:
//
//	spec, _ := protogen.Parse(protogen.BuiltinMSI)
//	p, _ := protogen.Generate(spec, protogen.NonStalling())
//	fmt.Println(protogen.RenderTable(p.Cache, protogen.TableOptions{}))
//	cfg := protogen.QuickVerifyConfig()
//	res, _ := protogen.NewEngine().Verify(ctx, protogen.VerifyJob{Protocol: p, Config: &cfg})
//	fmt.Println(res)
//
// Verification, simulation, litmus, lint and fuzz runs are jobs on an
// Engine (engine.go): each takes a context.Context, emits typed progress
// events and shares the engine's result cache. See docs/API.md.
package protogen

import (
	"protogen/internal/compare"
	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/fuzz"
	"protogen/internal/ir"
	"protogen/internal/litmus"
	"protogen/internal/murphi"
	"protogen/internal/protocols"
	"protogen/internal/sim"
	"protogen/internal/table"
	"protogen/internal/verify"
)

// Core IR types.
type (
	// Spec is a parsed stable-state protocol specification.
	Spec = ir.Spec
	// Protocol is a generated concurrent protocol (cache + directory FSMs).
	Protocol = ir.Protocol
	// Machine is one generated controller FSM.
	Machine = ir.Machine
	// State is one controller state with its generation metadata.
	State = ir.State
	// Transition is one controller reaction.
	Transition = ir.Transition
	// StateName names a coherence state.
	StateName = ir.StateName
	// MsgType names a message type.
	MsgType = ir.MsgType
	// AccessType enumerates core accesses.
	AccessType = ir.AccessType
	// Event is an access or message arrival.
	Event = ir.Event
)

// Generation.
type (
	// Options control generation (stalling/non-stalling, response policy,
	// transient loads, pending limit L, stale-Put pruning).
	Options = core.Options
)

// Verification.
type (
	// VerifyConfig tunes the explicit-state model checker.
	VerifyConfig = verify.Config
	// VerifyResult is an exploration summary with violations and traces.
	VerifyResult = verify.Result
	// Verdict is a VerifyResult's three-valued outcome: Pass, Fail, or
	// Incomplete when a bound stopped the run with no violation found.
	Verdict = verify.Verdict
	// Violation is one invariant failure.
	Violation = verify.Violation
	// VerifyResultCache memoizes verify results across runs, persisted
	// as JSONL under a cache directory (see docs/CACHING.md).
	VerifyResultCache = verify.ResultCache
)

// The verdicts VerifyResult.Verdict returns.
const (
	Pass       = verify.Pass
	Fail       = verify.Fail
	Incomplete = verify.Incomplete
)

// Simulation.
type (
	// SimConfig tunes a randomized-schedule simulation run.
	SimConfig = sim.Config
	// SimStats aggregates a run (stalls, messages, latencies, SC checks).
	SimStats = sim.Stats
	// Workload generates per-cache access streams.
	Workload = sim.Workload
)

// Litmus oracle: exhaustive weak-memory litmus testing with
// axiom-checked outcome sets (internal/litmus, run via Engine.Litmus).
type (
	// LitmusTest is one catalog shape of the exhaustive oracle.
	LitmusTest = litmus.Test
	// LitmusAxiom names a consistency model (sc, tso, weak).
	LitmusAxiom = litmus.Axiom
	// LitmusOptions tunes an oracle run.
	LitmusOptions = litmus.Options
	// LitmusOracleResult is one test's verdict under one axiom.
	LitmusOracleResult = litmus.Result
	// LitmusReport aggregates an oracle run over a test suite.
	LitmusReport = litmus.Report
	// LitmusTableEntry is one row of a machine-checked axiom table.
	LitmusTableEntry = litmus.TableEntry
)

// LitmusCatalog lists every shipped oracle test in canonical order.
func LitmusCatalog() []*LitmusTest { return litmus.Catalog() }

// Fuzzing: randomized spec families with differential verification.
type (
	// FuzzParams selects one member of the fuzz family space.
	FuzzParams = fuzz.Params
	// FuzzConfig tunes a differential fuzz campaign.
	FuzzConfig = fuzz.Config
	// FuzzReport aggregates a campaign.
	FuzzReport = fuzz.Report
	// FuzzSpecReport is one spec's campaign outcome.
	FuzzSpecReport = fuzz.SpecReport
	// FuzzFailure identifies what a spec run tripped over.
	FuzzFailure = fuzz.Failure
	// FuzzCorpusEntry is one committed regression reproducer.
	FuzzCorpusEntry = fuzz.CorpusEntry
)

// Comparison and rendering.
type (
	// Baseline is a hand-encoded controller table for diffing.
	Baseline = compare.Baseline
	// DiffReport compares a generated controller against a baseline.
	DiffReport = compare.Report
	// TableOptions tune paper-style table rendering.
	TableOptions = table.Options
	// MurphiOptions tune the Murphi backend.
	MurphiOptions = murphi.Options
)

// Built-in SSP sources (the paper's protocol suite).
var (
	// BuiltinMSI is the atomic MSI SSP of paper Tables I/II.
	BuiltinMSI = protocols.MSI
	// BuiltinMESI adds the Exclusive state with its silent E->M upgrade.
	BuiltinMESI = protocols.MESI
	// BuiltinMOSI is written with the Table III shape that forces the
	// Fwd_GetS -> O_Fwd_GetS preprocessing rename of Table IV.
	BuiltinMOSI = protocols.MOSI
	// BuiltinMSIUpgrade exercises the Upgrade-as-GetM reinterpretation.
	BuiltinMSIUpgrade = protocols.MSIUpgrade
	// BuiltinMSIUnordered is the §VI-C handshake protocol for unordered
	// networks.
	BuiltinMSIUnordered = protocols.MSIUnordered
	// BuiltinTSOCC is the §VI-D consistency-directed protocol.
	BuiltinTSOCC = protocols.TSOCC
)

// BuiltinEntry describes one built-in SSP.
type BuiltinEntry = protocols.Entry

// Builtins lists every built-in SSP in paper order.
func Builtins() []BuiltinEntry { return protocols.All }

// RegistryEntries lists the full protocol registry: the builtins, then
// one exemplar per shipped fuzz family, then the corpus reproducers
// ("corpus/<name>").
func RegistryEntries() ([]BuiltinEntry, error) {
	more, err := fuzz.Entries()
	if err != nil {
		return nil, err
	}
	return append(append([]BuiltinEntry(nil), protocols.All...), more...), nil
}

// LookupBuiltin finds a registry SSP by name. A builtin is answered
// without touching the fuzz package; any other name is looked up among
// the fuzz family exemplars and corpus reproducers.
func LookupBuiltin(name string) (BuiltinEntry, bool) {
	e, err := lookup(name)
	return e, err == nil
}

// Parse parses DSL source into a validated SSP.
func Parse(src string) (*Spec, error) { return dsl.Parse(src) }

// FormatSSP renders an SSP back to canonical DSL source.
func FormatSSP(s *Spec) string { return dsl.Format(s) }

// FormatProtocol renders a generated protocol in the DSL's controller
// form — the paper's §IV-B output format.
func FormatProtocol(p *Protocol) string { return dsl.FormatProtocol(p) }

// Generate runs the ProtoGen pipeline (paper §V) on an SSP.
func Generate(s *Spec, o Options) (*Protocol, error) { return core.Generate(s, o) }

// GenerateSource parses and generates in one step.
func GenerateSource(src string, o Options) (*Protocol, error) {
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Generate(s, o)
}

// NonStalling returns the Table VI configuration: non-stalling,
// immediate responses, transient loads allowed.
func NonStalling() Options { return core.NonStallingOpts() }

// Modes names the three generation modes in campaign order (stalling,
// nonstalling, deferred): the one list every mode sweep ranges over —
// lint layers, dependence statistics, the fuzz campaign, ablations.
var Modes = core.Modes

// OptionsForMode maps a generation-mode name (nonstalling, stalling,
// deferred; "" is nonstalling) to its option set — the single mapping
// every CLI shares.
func OptionsForMode(mode string) (Options, error) { return core.OptionsForMode(mode) }

// Stalling returns the primer-style stalling configuration (§VI-A).
func Stalling() Options { return core.StallingOpts() }

// DefaultVerifyConfig is the paper's 3-cache setup with symmetry reduction.
func DefaultVerifyConfig() VerifyConfig { return verify.DefaultConfig() }

// QuickVerifyConfig is a fast 2-cache configuration.
func QuickVerifyConfig() VerifyConfig { return verify.QuickConfig() }

// CheckCaches rejects a cache count above the checker's bound (8; see
// verify.MaxCaches for why). Every Engine job applies it; the service
// and the CLIs call it to refuse the job at the door.
func CheckCaches(n int) error { return verify.CheckCaches(n) }

// StandardWorkloads returns the contended / producer-consumer /
// read-mostly / migratory suite.
func StandardWorkloads() []Workload { return sim.Workloads() }

// WorkloadByName resolves one of StandardWorkloads by its Name.
func WorkloadByName(name string) (Workload, error) { return sim.WorkloadByName(name) }

// FuzzShapes lists the shipped fuzz family members; FuzzBrokenShapes the
// deliberately defective demonstration families; FuzzBoundaryShapes the
// members pinned on known generator boundaries.
func FuzzShapes() []FuzzParams         { return fuzz.Shapes() }
func FuzzBrokenShapes() []FuzzParams   { return fuzz.BrokenShapes() }
func FuzzBoundaryShapes() []FuzzParams { return fuzz.BoundaryShapes() }

// FuzzShapeByName resolves a family by its canonical name.
func FuzzShapeByName(name string) (FuzzParams, bool) { return fuzz.ShapeByName(name) }

// DefaultFuzzConfig is the standard campaign scale (2-cache differential
// checks, simulator cross-check, shrinking on failure).
func DefaultFuzzConfig() FuzzConfig { return fuzz.DefaultConfig() }

// FuzzCheckSource runs the differential oracle on one spec source.
func FuzzCheckSource(src string, limit int, simSeed int64, cfg FuzzConfig) FuzzSpecReport {
	return fuzz.CheckSource(src, limit, simSeed, cfg)
}

// FuzzShrink minimizes a failing spec to a reproducer that still fails
// in the same class. simSeed is the simulator seed that witnessed the
// failure (SpecReport.SimSeed); verifier-class failures ignore it.
func FuzzShrink(src string, failure FuzzFailure, simSeed int64, cfg FuzzConfig) (string, error) {
	return fuzz.Shrink(src, failure, simSeed, cfg)
}

// FuzzCorpus lists the committed regression reproducers.
func FuzzCorpus() ([]FuzzCorpusEntry, error) { return fuzz.Corpus() }

// WriteFuzzReproducers is the corpus sink: it writes every minimized
// reproducer of a campaign report into dir (one file per family, latest
// minimization wins; "" disables the sink) and returns the files
// written.
func WriteFuzzReproducers(dir string, rep *FuzzReport) ([]string, error) {
	return fuzz.WriteReproducers(dir, rep)
}

// FuzzTxnCount counts a spec source's SSP processes — the reproducer
// size metric.
func FuzzTxnCount(src string) (int, error) { return fuzz.TxnCount(src) }

// EmitMurphi renders the protocol as Murphi source (§IV-B backend).
func EmitMurphi(p *Protocol, o MurphiOptions) string { return murphi.Emit(p, o) }

// DefaultMurphiOptions mirrors the paper's three-cache model.
func DefaultMurphiOptions() MurphiOptions { return murphi.DefaultOptions() }

// RenderTable renders a controller as a paper-style table.
func RenderTable(m *Machine, o TableOptions) string { return table.Render(m, o) }

// RenderDot renders a controller (or a subset of its states) as a
// Graphviz digraph, the form of the paper's Figures 1 and 2.
func RenderDot(m *Machine, only []StateName) string { return table.Dot(m, only) }

// RenderSpecTables renders the atomic SSP as Tables I/II-style tables.
func RenderSpecTables(s *Spec) (cache, dir string) { return table.RenderSpecTables(s) }

// PrimerNonStallingMSI is the primer's non-stalling MSI cache baseline
// (paper Table VI's plain entries).
func PrimerNonStallingMSI() *Baseline { return compare.PrimerMSINonStalling() }

// PrimerStallingMSI is the primer's stalling MSI cache baseline.
func PrimerStallingMSI() *Baseline { return compare.PrimerMSIStalling() }

// CompareWithBaseline diffs a generated controller against a baseline.
func CompareWithBaseline(m *Machine, b *Baseline) *DiffReport {
	return compare.Against(m, b, compare.Events)
}
