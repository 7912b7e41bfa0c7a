package litmus

import (
	"context"

	"protogen/internal/engine"
	"protogen/internal/ir"
	vstore "protogen/internal/store"
)

// DefaultMaxStates bounds one exhaustive exploration. Catalog shapes on
// the generated protocols stay well under this; the bound exists so a
// pathological protocol degrades into an explicit incomplete verdict
// rather than an unbounded search.
const DefaultMaxStates = 2_000_000

// Explored is the result of one exhaustive exploration: the exact set
// of terminal outcomes (when Complete), the number of distinct
// interleaving states visited, and the stuck configurations found.
type Explored struct {
	Outcomes map[string]Outcome // canonical string -> outcome
	States   int                // distinct configurations visited
	Complete bool               // false when MaxStates or ctx cut the search
	Stuck    []string           // diagnostics for dead configurations
}

// Explore enumerates every schedule of t over protocol p with caches
// caches, deduplicating configurations through the fingerprint visited
// store, and returns the exact terminal outcome set. A configuration
// with no enabled choice that has not retired all threads is reported
// in Stuck rather than silently dropped — a stuck litmus machine is a
// protocol bug (or a harness bug) either way.
func Explore(ctx context.Context, p *ir.Protocol, t *Test, caches, maxStates int) (*Explored, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	r := newRunner(p, t, caches)
	w0, err := r.newWorld()
	if err != nil {
		return nil, err
	}
	res := &Explored{Outcomes: map[string]Outcome{}, Complete: true}
	visited := vstore.New()
	// The table is used as a set: the state index it stores is never
	// read back, so every state goes in under 0.
	visited.Insert(engine.Fingerprint(r.encode(w0)), "", 0)

	frontier := []*world{w0}
	for len(frontier) > 0 {
		if res.States >= maxStates {
			res.Complete = false
			break
		}
		if res.States&1023 == 0 && ctx.Err() != nil {
			res.Complete = false
			return res, ctx.Err()
		}
		w := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		res.States++

		r.chBuf = r.choices(w, r.chBuf[:0])
		if len(r.chBuf) == 0 {
			if r.done(w) && quiet(w) {
				o := r.outcome(w)
				res.Outcomes[o.String()] = o
			} else if len(res.Stuck) < 8 {
				res.Stuck = append(res.Stuck, r.stuckError(w).Error())
			}
			continue
		}
		for _, ch := range r.chBuf {
			n := w.clone()
			if err := r.apply(n, ch); err != nil {
				return res, err
			}
			if _, fresh := visited.Insert(engine.Fingerprint(r.encode(n)), "", 0); !fresh {
				continue
			}
			frontier = append(frontier, n)
			// chBuf is stable across apply: it belongs to the runner and
			// apply never calls choices.
		}
	}
	return res, nil
}
