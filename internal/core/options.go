// Package core implements the ProtoGen algorithm (paper §V): preprocessing
// an SSP so every forwarded request arrives at exactly one directory-visible
// stable class, expanding transactions into Step-2 transient states,
// accommodating concurrency (Case 1 / Case 2 of §V-D), assigning access
// permissions, merging behaviorally identical transient states, and
// generating the directory controller with the stale-Put rule.
package core

import "fmt"

// Options control the nature of the generated protocol (paper §IV-A,
// "Configuration parameters").
type Options struct {
	// NonStalling selects how Case-2 forwarded requests (other transaction
	// ordered after ours) are handled: false = stall the event, true =
	// transition immediately to a derived transient state.
	NonStalling bool

	// ImmediateResponses only matters when NonStalling is set: true sends
	// data-independent responses (e.g. Inv-Ack) at arrival, preserving
	// per-location sequential consistency; false defers every response
	// until the own transaction completes, preserving SWMR in physical
	// time (paper §V-D2).
	ImmediateResponses bool

	// TransientAccess permits loads to hit in transient states per the
	// Step-4 rule; false makes every access stall in transient states.
	TransientAccess bool

	// PendingLimit is L, the maximum number of later transactions a cache
	// may absorb before its own transaction completes; beyond it the
	// controller stalls (paper §V-D2).
	PendingLimit int

	// PruneSharerOnStalePut also removes the requestor from the sharer
	// list when acknowledging a stale Put. The paper calls this "a
	// possible optimization, but not required"; our model checker shows it
	// is in fact required for the stalling and deferred-response designs
	// (dangling sharers draw invalidations whose acknowledgments those
	// designs withhold, forming a cycle), while the immediate-response
	// design tolerates dangling sharers. Default on, matching the primer's
	// directory; the no-prune ablation reproduces the deadlocks.
	PruneSharerOnStalePut bool
}

// DefaultLimit is the default pending-transaction limit L.
const DefaultLimit = 3

// NonStallingOpts are the options reproducing paper Table VI: non-stalling,
// immediate responses, loads allowed in transient states.
func NonStallingOpts() Options {
	return Options{
		NonStalling:           true,
		ImmediateResponses:    true,
		TransientAccess:       true,
		PendingLimit:          DefaultLimit,
		PruneSharerOnStalePut: true,
	}
}

// StallingOpts are the options reproducing the primer's stalling protocols
// (paper §VI-A).
func StallingOpts() Options {
	return Options{
		NonStalling:           false,
		TransientAccess:       true,
		PendingLimit:          DefaultLimit,
		PruneSharerOnStalePut: true,
	}
}

// DeferredOpts are non-stalling with all responses deferred (physical-time
// SWMR; the middle design of §V-D2).
func DeferredOpts() Options {
	o := NonStallingOpts()
	o.ImmediateResponses = false
	return o
}

// Modes names the three generation modes in campaign order — the one
// list every mode sweep (fuzz campaign, lint layers, dependence stats,
// ablations) ranges over. bench/'s generate-sweep hashes depend on the
// order.
var Modes = []string{"stalling", "nonstalling", "deferred"}

// OptionsForMode maps a generation-mode name (as used by every CLI, the
// service and the fuzz campaign) to its option set; "" is nonstalling,
// the Table VI configuration.
func OptionsForMode(mode string) (Options, error) {
	switch mode {
	case "stalling":
		return StallingOpts(), nil
	case "nonstalling", "":
		return NonStallingOpts(), nil
	case "deferred":
		return DeferredOpts(), nil
	}
	return Options{}, fmt.Errorf("unknown mode %q (want nonstalling, stalling or deferred)", mode)
}

// KeyString renders every generation option deterministically for
// verify result-cache keys (see verify.CacheKey and docs/CACHING.md).
// Every Options field must appear here: an omitted field would let two
// differently generated protocols share a cache entry. Changing the
// rendering (or adding a field) invalidates previously cached entries,
// which is the safe direction. The constant "stalefwd=true" names the
// stale-forward pass every generation runs; it stays so that keys
// recorded when the pass was an option still match.
func (o Options) KeyString() string {
	return fmt.Sprintf("nonstalling=%t immediate=%t transient=%t limit=%d prune=%t stalefwd=true",
		o.NonStalling, o.ImmediateResponses, o.TransientAccess,
		o.PendingLimit, o.PruneSharerOnStalePut)
}

// Note renders the options for protocol reports.
func (o Options) Note() string {
	mode := "stalling"
	if o.NonStalling {
		if o.ImmediateResponses {
			mode = "non-stalling, immediate responses"
		} else {
			mode = "non-stalling, deferred responses"
		}
	}
	acc := "no transient accesses"
	if o.TransientAccess {
		acc = "transient loads allowed"
	}
	return fmt.Sprintf("%s; %s; L=%d", mode, acc, o.PendingLimit)
}
