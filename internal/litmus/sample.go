package litmus

import (
	"context"
	"math/rand"

	"protogen/internal/ir"
)

// Sampled is the result of a randomized sampling run: the observed
// outcome multiset. By construction every sampled outcome is a terminal
// state of the transition relation Explore enumerates, so for any
// (protocol, test) pair the sampled outcome set is a subset of the
// exhaustive one — the containment the oracle's agreement check pins.
type Sampled struct {
	Outcomes map[string]int // canonical outcome -> occurrence count
	Runs     int
}

// seedHop derives the i-th per-run seed from the campaign seed with a
// splitmix64 hop, so consecutive runs draw from unrelated streams
// (seed+i as a rand.Source shares most of its schedule prefix with its
// neighbors, silently collapsing the sample's effective diversity).
func seedHop(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed) + uint64(i)*0x9e3779b97f4a7c15))
}

// splitmix64 is the finalizer used to decorrelate per-run seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sample runs t over `runs` randomized schedules of the same transition
// relation the exhaustive explorer walks, choosing uniformly among the
// enabled choices at every step. A stuck configuration is a hard error
// (same diagnostic as the explorer), not a silent retry.
func Sample(ctx context.Context, p *ir.Protocol, t *Test, caches, runs int, seed int64) (*Sampled, error) {
	r := newRunner(p, t, caches)
	// The warm-up is deterministic, so every run starts from the same
	// configuration: build it once, clone per run.
	w0, err := r.newWorld()
	if err != nil {
		return nil, err
	}
	res := &Sampled{Outcomes: map[string]int{}, Runs: runs}
	for i := 0; i < runs; i++ {
		if i&255 == 0 && ctx.Err() != nil {
			return res, ctx.Err()
		}
		rng := rand.New(rand.NewSource(seedHop(seed, i)))
		o, err := r.sampleOnce(w0.clone(), rng)
		if err != nil {
			return res, err
		}
		res.Outcomes[o.String()]++
	}
	return res, nil
}

// sampleOnce walks one random schedule of w to termination.
func (r *runner) sampleOnce(w *world, rng *rand.Rand) (Outcome, error) {
	for step := 0; step < 20000; step++ {
		r.chBuf = r.choices(w, r.chBuf[:0])
		if len(r.chBuf) == 0 {
			if r.done(w) && quiet(w) {
				return r.outcome(w), nil
			}
			return nil, r.stuckError(w)
		}
		if err := r.apply(w, r.chBuf[rng.Intn(len(r.chBuf))]); err != nil {
			return nil, err
		}
	}
	return nil, r.stuckError(w)
}
