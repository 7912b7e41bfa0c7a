package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"protogen/internal/ir"
)

// Workload generates the next desired access per cache. Implementations
// must be deterministic given the rng.
type Workload interface {
	Name() string
	Next(cache int, rng *rand.Rand) ir.AccessType
}

// Contended: every cache hammers stores with some loads — the worst case
// for stalling protocols (racing GetMs force forwarded requests into
// transient states).
type Contended struct{ StoreFrac float64 }

// Name implements Workload.
func (Contended) Name() string { return "contended" }

// Next implements Workload.
func (w Contended) Next(_ int, rng *rand.Rand) ir.AccessType {
	f := w.StoreFrac
	if f == 0 {
		f = 0.6
	}
	if rng.Float64() < f {
		return ir.AccessStore
	}
	return ir.AccessLoad
}

// ProducerConsumer: cache 0 writes, everyone else reads.
type ProducerConsumer struct{}

// Name implements Workload.
func (ProducerConsumer) Name() string { return "producer-consumer" }

// Next implements Workload.
func (ProducerConsumer) Next(cache int, rng *rand.Rand) ir.AccessType {
	if cache == 0 {
		if rng.Float64() < 0.8 {
			return ir.AccessStore
		}
		return ir.AccessLoad
	}
	return ir.AccessLoad
}

// ReadMostly: occasional stores in a sea of loads.
type ReadMostly struct{}

// Name implements Workload.
func (ReadMostly) Name() string { return "read-mostly" }

// Next implements Workload.
func (ReadMostly) Next(_ int, rng *rand.Rand) ir.AccessType {
	if rng.Float64() < 0.05 {
		return ir.AccessStore
	}
	return ir.AccessLoad
}

// Migratory: each cache reads then writes then evicts — migratory sharing
// with replacements in the mix.
type Migratory struct{}

// Name implements Workload.
func (Migratory) Name() string { return "migratory" }

// Next implements Workload.
func (Migratory) Next(_ int, rng *rand.Rand) ir.AccessType {
	switch rng.Intn(4) {
	case 0:
		return ir.AccessLoad
	case 1, 2:
		return ir.AccessStore
	default:
		return ir.AccessRepl
	}
}

// Workloads lists the standard suite.
func Workloads() []Workload {
	return []Workload{Contended{}, ProducerConsumer{}, ReadMostly{}, Migratory{}}
}

// WorkloadByName resolves a standard-suite workload from its Name —
// the lookup behind protosim -workload and the service's "workload"
// request field.
func WorkloadByName(name string) (Workload, error) {
	var names []string
	for _, w := range Workloads() {
		if w.Name() == name {
			return w, nil
		}
		names = append(names, w.Name())
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}
