package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"protogen/internal/analyze"
	"protogen/internal/core"
	"protogen/internal/depend"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// scanEvents is ir.Machine.Events as a linear scan of Trans: the
// reference the machine's index must agree with.
func scanEvents(m *ir.Machine) []ir.Event {
	seen := map[string]bool{}
	var acc, msg []ir.Event
	for _, t := range m.Trans {
		k := t.Ev.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		if t.Ev.Kind == ir.EvAccess {
			acc = append(acc, t.Ev)
		} else {
			msg = append(msg, t.Ev)
		}
	}
	sort.Slice(acc, func(i, j int) bool { return acc[i].Access < acc[j].Access })
	return append(acc, msg...)
}

// scanWhere returns, in Trans order, the transitions keep selects.
func scanWhere(m *ir.Machine, keep func(*ir.Transition) bool) []ir.Transition {
	var out []ir.Transition
	for i := range m.Trans {
		if keep(&m.Trans[i]) {
			out = append(out, m.Trans[i])
		}
	}
	return out
}

// indexMatchesScan checks Events, and TransFrom and Find on every state
// and every (state, event) cell, against linear scans of Trans. The
// states are the declared ones, every From in Trans, and one that does
// not exist; the events are the scan's plus one no transition has.
func indexMatchesScan(m *ir.Machine) error {
	evs := scanEvents(m)
	if got := m.Events(); !reflect.DeepEqual(got, evs) {
		return fmt.Errorf("%s: Events() = %v, scan %v", m.Name, got, evs)
	}
	states := append([]ir.StateName{"no such state"}, m.Order...)
	for _, t := range m.Trans {
		states = append(states, t.From)
	}
	evs = append(evs, ir.MsgEvent("no such message"))
	for _, n := range states {
		want := scanWhere(m, func(t *ir.Transition) bool { return t.From == n })
		if got := m.TransFrom(n); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: TransFrom(%s) has %d transitions, scan %d", m.Name, n, len(got), len(want))
		}
		for _, ev := range evs {
			want := scanWhere(m, func(t *ir.Transition) bool { return t.From == n && t.Ev == ev })
			if got := m.Find(n, ev); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s: Find(%s, %s) has %d transitions, scan %d", m.Name, n, ev, len(got), len(want))
			}
		}
	}
	return nil
}

// TestTransIndexMatchesScan: after Generate, on registry × core.Modes and
// every shipped and boundary family, each machine's index answers exactly
// what a scan of Trans answers, in the same order.
func TestTransIndexMatchesScan(t *testing.T) {
	type ssp struct{ name, src string }
	var texts []ssp
	for _, e := range protocols.All {
		texts = append(texts, ssp{e.Name, e.Source})
	}
	for _, p := range append(Shapes(), BoundaryShapes()...) {
		texts = append(texts, ssp{p.Name(), p.Source()})
	}
	generated := 0
	for _, text := range texts {
		spec, err := dsl.Parse(text.src)
		if err != nil {
			t.Fatalf("%s: %v", text.name, err)
		}
		for _, mode := range Modes {
			opts, err := core.OptionsForMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Generate(spec, opts)
			if err != nil {
				continue // a boundary shape generation rejects
			}
			generated++
			for _, m := range []*ir.Machine{p.Cache, p.Dir} {
				if err := indexMatchesScan(m); err != nil {
					t.Errorf("%s/%s: %v", text.name, mode, err)
				}
			}
		}
	}
	if generated < 3*(len(protocols.All)+len(Shapes())) {
		t.Fatalf("only %d protocols generated", generated)
	}
}

// TestTransIndexConcurrentReads: reads never write the index, so several
// goroutines may read one finished protocol at once, as the parallel
// litmus suite does. Run it under -race.
func TestTransIndexConcurrentReads(t *testing.T) {
	spec, err := dsl.Parse(protocols.MOSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range []*ir.Machine{p.Cache, p.Dir} {
				if err := indexMatchesScan(m); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestTransIndexRandomWrites: a machine built by a seeded random sequence
// of AddTransition calls, with reads in between the way generation
// interleaves them, then cut down by SetTransitions and grown again,
// agrees with the scan after every step.
func TestTransIndexRandomWrites(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := ir.NewMachine("random", ir.KindCache)
		states := []ir.StateName{"I", "S", "M", "IS_D", "IM_AD", "SM_A"}
		for _, n := range states {
			if err := m.AddState(&ir.State{Name: n}); err != nil {
				t.Fatal(err)
			}
		}
		event := func() ir.Event {
			if r.Intn(3) == 0 {
				return ir.AccessEvent(ir.AccessType(r.Intn(5)))
			}
			return ir.MsgEvent(ir.MsgType(fmt.Sprintf("M%d", r.Intn(6))))
		}
		add := func(n int) {
			for i := 0; i < n; i++ {
				m.AddTransition(ir.Transition{
					From: states[r.Intn(len(states))], Ev: event(), Next: states[r.Intn(len(states))],
					GuardLabel: fmt.Sprintf("g%d", i), Stall: r.Intn(4) == 0,
				})
				if r.Intn(8) == 0 {
					if err := indexMatchesScan(m); err != nil {
						t.Fatalf("seed %d, after %d adds: %v", seed, len(m.Trans), err)
					}
				}
			}
		}
		add(1 + r.Intn(120))
		if err := indexMatchesScan(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		drop := states[r.Intn(len(states))]
		var keep []ir.Transition
		for _, tr := range m.Trans {
			if tr.From != drop {
				keep = append(keep, tr)
			}
		}
		m.SetTransitions(keep)
		if err := indexMatchesScan(m); err != nil {
			t.Fatalf("seed %d, after SetTransitions: %v", seed, err)
		}
		add(r.Intn(40))
		if err := indexMatchesScan(m); err != nil {
			t.Fatalf("seed %d, after SetTransitions and adds: %v", seed, err)
		}
	}
}

// FuzzGenerate: whatever text it is given, the front end and the
// generator answer with a parse error, a diagnostic or a protocol, never
// a panic or a hang; and every protocol generated is indexed the way a
// scan of its transitions reads.
func FuzzGenerate(f *testing.F) {
	for _, e := range protocols.All {
		f.Add(e.Source)
	}
	for _, p := range append(append(Shapes(), BoundaryShapes()...), BrokenShapes()...) {
		f.Add(p.Source())
	}
	corpus, err := Corpus()
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range corpus {
		f.Add(e.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 16<<10 {
			return
		}
		spec, err := dsl.Parse(src)
		if err != nil {
			return
		}
		analyze.CheckSpec(spec)
		for _, mode := range Modes {
			opts, err := core.OptionsForMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Generate(spec, opts)
			if err != nil {
				continue
			}
			analyze.CheckProtocol(p, mode)
			depend.New(p)
			for _, m := range []*ir.Machine{p.Cache, p.Dir} {
				if err := indexMatchesScan(m); err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			}
		}
	})
}
