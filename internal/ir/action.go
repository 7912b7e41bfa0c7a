package ir

import (
	"strings"
)

// ActionOp enumerates the closed vocabulary of controller actions. The
// generator only ever composes these; the interpreter executes them.
type ActionOp int

// Action operations.
const (
	// ASend sends Msg to Dst with the given payload.
	ASend ActionOp = iota
	// ASet assigns Expr to the auxiliary variable Var.
	ASet
	// ASetAdd / ASetDel / ASetClear mutate the id-set variable Var.
	ASetAdd
	ASetDel
	ASetClear
	// ACopyData copies the data payload of the triggering message into the
	// machine's data block.
	ACopyData
	// AWriteback copies the data payload of the triggering message into the
	// directory's memory block (alias of ACopyData on the directory side,
	// kept separate for table readability).
	AWriteback
	// ADefer records the triggering forwarded request (type + requestor)
	// in the deferred-obligation queue, to be discharged by AFlush.
	ADefer
	// AFlush discharges all deferred obligations in FIFO order using the
	// protocol-level DeferredActions table.
	AFlush
	// APerform completes the pending core access (the one that started the
	// transaction): a store writes the block, a load reads it.
	APerform
	// AHit performs the triggering access immediately (stable-state hit or
	// transient-state load hit).
	AHit
	// AStallMarker is never executed; transitions carrying it are rendered
	// as stalls. Kept as an action so stall cells survive round trips.
	AStallMarker
	// AReplay marks that the directory must drain its deferred-request
	// queue upon entering the next stable state (interpreter rule).
	AReplay
)

// DstKind enumerates message destinations resolvable at runtime.
type DstKind int

// Destinations.
const (
	DstDir      DstKind = iota // the directory
	DstMsgSrc                  // the sender of the triggering message
	DstMsgReq                  // the requestor carried in the triggering forwarded message
	DstOwner                   // the directory's owner variable
	DstSharers                 // every member of the sharer set (minus ExceptSrc)
	DstDeferred                // the requestor recorded with the deferred obligation
)

func (d DstKind) String() string {
	switch d {
	case DstDir:
		return "dir"
	case DstMsgSrc:
		return "msg.src"
	case DstMsgReq:
		return "msg.req"
	case DstOwner:
		return "owner"
	case DstSharers:
		return "sharers"
	case DstDeferred:
		return "deferred.req"
	}
	return "dst?"
}

// Payload describes what a sent message carries.
type Payload struct {
	WithData bool  // attach the machine's current data block
	Acks     *Expr // ack-count field (nil = 0)
	Req      *Expr // requestor id to embed (forwarded requests, invalidations)
}

// Action is one symbolic controller operation. Which fields are meaningful
// depends on Op; Validate enforces the combinations.
type Action struct {
	Op        ActionOp
	Msg       MsgType // ASend: message type; ADefer: the deferred forward
	Dst       DstKind // ASend: destination
	ExceptSrc bool    // ASend to DstSharers: exclude the triggering msg's src
	Payload   Payload // ASend
	Var       string  // ASet / ASetAdd / ASetDel / ASetClear
	Expr      *Expr   // ASet value; ASetAdd/ASetDel member id
}

// Send builds a plain send action.
func Send(m MsgType, d DstKind) Action { return Action{Op: ASend, Msg: m, Dst: d} }

// SendData builds a send action carrying the data block.
func SendData(m MsgType, d DstKind) Action {
	return Action{Op: ASend, Msg: m, Dst: d, Payload: Payload{WithData: true}}
}

// SetVar builds an assignment action.
func SetVar(name string, e *Expr) Action { return Action{Op: ASet, Var: name, Expr: e} }

func (a Action) String() string {
	switch a.Op {
	case ASend:
		s := "send " + string(a.Msg) + " to " + a.Dst.String()
		if a.Dst == DstSharers && a.ExceptSrc {
			s += " except msg.src"
		}
		if a.Payload.WithData {
			s += " with data"
		}
		if a.Payload.Acks != nil {
			s += " acks " + a.Payload.Acks.String()
		}
		if a.Payload.Req != nil {
			s += " req " + a.Payload.Req.String()
		}
		return s
	case ASet:
		return a.Var + " = " + a.Expr.String()
	case ASetAdd:
		return a.Var + ".add(" + a.Expr.String() + ")"
	case ASetDel:
		return a.Var + ".del(" + a.Expr.String() + ")"
	case ASetClear:
		return a.Var + ".clear"
	case ACopyData:
		return "copy data"
	case AWriteback:
		return "writeback data"
	case ADefer:
		return "defer"
	case AFlush:
		return "flush deferred"
	case APerform:
		return "perform access"
	case AHit:
		return "hit"
	case AStallMarker:
		return "stall"
	case AReplay:
		return "replay deferred"
	}
	return "action?"
}

// Equal reports semantic equality of two actions.
func (a Action) Equal(o Action) bool {
	return a.Op == o.Op && a.Msg == o.Msg && a.Dst == o.Dst &&
		a.ExceptSrc == o.ExceptSrc && a.Var == o.Var &&
		a.Payload.WithData == o.Payload.WithData &&
		a.Payload.Acks.Equal(o.Payload.Acks) &&
		a.Payload.Req.Equal(o.Payload.Req) &&
		a.Expr.Equal(o.Expr)
}

// ActionsEqual reports element-wise equality of two action slices.
func ActionsEqual(a, b []Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// CloneActions deep-copies a slice of actions.
func CloneActions(as []Action) []Action {
	out := make([]Action, len(as))
	for i, a := range as {
		a.Expr = a.Expr.Clone()
		a.Payload.Acks = a.Payload.Acks.Clone()
		a.Payload.Req = a.Payload.Req.Clone()
		out[i] = a
	}
	return out
}

// ActionsString renders an action list the way the paper's tables do.
func ActionsString(as []Action) string {
	parts := make([]string, 0, len(as))
	for _, a := range as {
		parts = append(parts, a.String())
	}
	return strings.Join(parts, "; ")
}
