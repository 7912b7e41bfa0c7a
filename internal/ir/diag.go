package ir

import (
	"errors"
	"fmt"
)

// Code is a stable diagnostic code shared by ir validation and the
// internal/analyze static analyzer. Codes are append-only and never
// renumbered once shipped, so CLI output, service errors and CI greps
// stay stable across releases. The PG0xx block belongs to validation
// (hard well-formedness errors raised by ValidateSpec /
// ValidateProtocol); PG1xx is the analyzer's spec-level flow passes,
// PG2xx its protocol-level passes, and PG3xx the rule-dependence
// analysis behind the checker's partial-order reduction (see
// docs/ANALYSIS.md for the full table).
type Code string

// Validation diagnostic codes (ValidateSpec / ValidateProtocol).
const (
	// CodeSpecName: the spec has no protocol name.
	CodeSpecName Code = "PG001"
	// CodeSpecMachines: a cache or directory machine is missing.
	CodeSpecMachines Code = "PG002"
	// CodeDupMsg: a message type is declared twice, or is named like a
	// core access (load, store, repl, acq, none) and would share that
	// access's event name.
	CodeDupMsg Code = "PG003"
	// CodeDupState: a stable state is declared twice.
	CodeDupState Code = "PG004"
	// CodeBadInit: the machine's init state is not a declared stable state.
	CodeBadInit Code = "PG005"
	// CodeDupVar: an auxiliary variable is declared twice.
	CodeDupVar Code = "PG006"
	// CodeBadStart: a process starts at an undeclared stable state.
	CodeBadStart Code = "PG007"
	// CodeUndeclaredMsg: a trigger, request, await arm or send references
	// an undeclared message type.
	CodeUndeclaredMsg Code = "PG008"
	// CodeRequestTrigger: a cache process is triggered by a request-class
	// message (requests only ever arrive at the directory).
	CodeRequestTrigger Code = "PG009"
	// CodeDupProcess: two processes share (state, trigger, src constraint).
	CodeDupProcess Code = "PG010"
	// CodeBadRequestClass: a process uses a non-request-class message as
	// its request.
	CodeBadRequestClass Code = "PG011"
	// CodeBadFinal: a process ends or breaks at an undeclared stable state.
	CodeBadFinal Code = "PG012"
	// CodeEmptyAwait: an await position has no arms.
	CodeEmptyAwait Code = "PG013"
	// CodeNoSubAwait: a descend case carries no sub-await.
	CodeNoSubAwait Code = "PG014"
	// CodeBadAction: an action is malformed (cache sending to
	// owner/sharers, set operation on a non-set variable, assignment to an
	// undeclared variable, generator-internal op in a spec).
	CodeBadAction Code = "PG015"
	// CodeBadExpr: an expression is malformed (undeclared variable, count
	// or membership test on a non-set variable).
	CodeBadExpr Code = "PG016"
	// CodeProtoMachine: a generated protocol is missing a machine or its
	// init state is unknown.
	CodeProtoMachine Code = "PG017"
	// CodeProtoUnknownState: a generated transition references an unknown
	// state.
	CodeProtoUnknownState Code = "PG018"
	// CodeProtoDupCell: two generated transitions share a table cell
	// (state, event, guard label).
	CodeProtoDupCell Code = "PG019"
)

// Analyzer diagnostic codes (internal/analyze). Declared here so the
// validator and the analyzer draw from one namespace and can never
// collide; the analyzer owns their semantics.
const (
	// CodeUnreachableState: a declared stable state no transaction chain
	// from init can reach.
	CodeUnreachableState Code = "PG101"
	// CodeDeadProcess: a process starting at an unreachable stable state.
	CodeDeadProcess Code = "PG102"
	// CodeDeadArm: an await arm waiting on a message no machine ever
	// sends.
	CodeDeadArm Code = "PG103"
	// CodeMsgNeverSent: a declared message type no machine ever sends.
	CodeMsgNeverSent Code = "PG104"
	// CodeMsgNeverHandled: a sent message no receiver ever handles
	// (neither a process trigger nor an await arm).
	CodeMsgNeverHandled Code = "PG105"
	// CodeAckImbalance: msg.acks is read but no send carries an ack
	// count, or vice versa.
	CodeAckImbalance Code = "PG106"
	// CodeReadBeforeWrite: a variable is read but never written.
	CodeReadBeforeWrite Code = "PG107"
	// CodeDeadWrite: a variable is written but never read.
	CodeDeadWrite Code = "PG108"
	// CodeDeadTrigger: a message-triggered process whose trigger no
	// machine ever sends.
	CodeDeadTrigger Code = "PG109"
	// CodeStuckAwait: a reachable await none of whose arms can ever be
	// satisfied — the transaction is statically guaranteed to hang.
	CodeStuckAwait Code = "PG110"
	// CodeAckFanout: a transaction announces an ack count that disagrees
	// with its invalidation fan-out (count(S) alongside send-to-S except
	// src, or vice versa) — the requestor waits for the wrong number of
	// acks.
	CodeAckFanout Code = "PG111"
	// CodeDroppedData: a handler for a message that always carries data
	// neither writes it back, copies it, nor forwards it — the payload is
	// silently discarded.
	CodeDroppedData Code = "PG112"
	// CodeProtoUnreachable: a generated controller state unreachable from
	// init over the transition graph.
	CodeProtoUnreachable Code = "PG201"
	// CodeProtoDeadTransition: a transition out of an unreachable state.
	CodeProtoDeadTransition Code = "PG202"
	// CodeCoverageHole: a (state, unsolicited message) pair with neither a
	// transition nor a stall — an arriving message would be dropped or
	// crash the interpreter (the silent-drop boundary shape).
	CodeCoverageHole Code = "PG203"
	// CodeGuardOverlap: two transitions on the same (state, event) whose
	// guards can be true simultaneously — nondeterministic dispatch.
	CodeGuardOverlap Code = "PG204"
)

// Dependence-analysis diagnostic codes (internal/depend via
// internal/analyze). The PG3xx block reports what the static
// rule-dependence analysis proved about a generated protocol — the
// analysis the checker's partial-order reduction (verify.Config.Reduce)
// is built on. All three are informational: they never mean the
// protocol is wrong, only how reducible it is.
const (
	// CodeDependUnsafe: a protocol-level fact defeats the id-freeness
	// induction (an id sink receives a non-id expression), disabling
	// partial-order reduction for the whole protocol.
	CodeDependUnsafe Code = "PG301"
	// CodeDependPessimized: a cache rule class was pessimized to
	// invariant-visible (with the reason), so the reduction can never
	// fuse it.
	CodeDependPessimized Code = "PG302"
	// CodeDependSummary: the per-protocol dependence summary — class
	// counts, how many are invisible and fusible, and the stall/send
	// table sizes the reducer consumes.
	CodeDependSummary Code = "PG303"
)

// Diag is a coded validation error. It unwraps cleanly through
// fmt.Errorf("...: %w", err) chains, so CodeOf recovers the code from
// wrapped machine/process context errors.
type Diag struct {
	Code Code
	Msg  string
}

// Error renders "PGnnn: message" so codes are greppable in CLI and
// service output.
func (d *Diag) Error() string { return string(d.Code) + ": " + d.Msg }

// Diagf builds a coded error.
func Diagf(code Code, format string, args ...any) error {
	return &Diag{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the diagnostic code from err, unwrapping as needed;
// "" when err carries no code.
func CodeOf(err error) Code {
	var d *Diag
	if errors.As(err, &d) {
		return d.Code
	}
	return ""
}
