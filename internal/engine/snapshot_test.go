package engine_test

// Property pinning of the snapshot frontier's two primitives, over the
// same inputs as the canonicalization differential (registry × 3 modes ×
// seeded random walks, plus the fuzz-family sweep). At every step of every
// walk:
//
//   - Restore(AppendSnapshot(s)) into a System with a history of its own
//     has the same key, the same Rules() in the same order (bag order on
//     an unordered network — what keeps witness traces replayable), the
//     same state names, and re-snapshots to the same bytes;
//   - for every enabled rule, work.Apply(r); work.RevertTo(par) leaves
//     work byte-equal to par — including rules whose Apply fails half-way
//     — which is what lets the checker reuse one scratch System for every
//     successor of a state.
//
// Mutation-checked: a build that drops the controller bit in
// drainDirDefers, the bit in exec, the dirty mark in Network.Send or the
// one in Network.Remove each fails it.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// snapWalk carries one walk's scratch Systems and what the sweep covered.
type snapWalk struct {
	t     *testing.T
	label string
	enc   *engine.Encoder
	par   *engine.System // restore target: keeps the previous step's content
	work  *engine.System // apply/revert scratch
	// coverage, summed over the sweep
	applyErrs, replayErrs int
}

func (w *snapWalk) key(s *engine.System) string { return string(w.enc.Key(s)) }

// checkRestore round-trips sys through a record into w.par.
func (w *snapWalk) checkRestore(sys *engine.System, step int) []byte {
	w.t.Helper()
	snap := sys.AppendSnapshot(nil)
	w.par.Restore(snap)
	if w.key(w.par) != w.key(sys) {
		w.t.Fatalf("%s step %d: restored state has another key", w.label, step)
	}
	if again := w.par.AppendSnapshot(nil); !bytes.Equal(again, snap) {
		w.t.Fatalf("%s step %d: restored state re-snapshots differently\nfirst:  %x\nsecond: %x", w.label, step, snap, again)
	}
	want, got := sys.Rules(), w.par.Rules()
	if len(want) != len(got) {
		w.t.Fatalf("%s step %d: restored state enables %d rules, original %d", w.label, step, len(got), len(want))
	}
	for i := range want {
		// Labels and positions: the unstamped hand-built message of the
		// junk variant comes back stamped, everything else is identical.
		if want[i].String() != got[i].String() || want[i].Del.Queue != got[i].Del.Queue || want[i].Del.Pos != got[i].Del.Pos {
			w.t.Fatalf("%s step %d: rule %d is %q at %d/%d, restored %q at %d/%d", w.label, step, i,
				want[i], want[i].Del.Queue, want[i].Del.Pos, got[i], got[i].Del.Queue, got[i].Del.Pos)
		}
	}
	ctrls := func(s *engine.System) []*engine.Ctrl { return append(append([]*engine.Ctrl(nil), s.Caches...), s.Dir) }
	for i, c := range ctrls(sys) {
		if r := ctrls(w.par)[i]; r.State != c.State || r.StIdx != c.StIdx {
			w.t.Fatalf("%s step %d: controller %d restored in %s/%d, original %s/%d", w.label, step, i, r.State, r.StIdx, c.State, c.StIdx)
		}
	}
	return snap
}

// checkRevert applies every enabled rule of w.par (just restored from
// snap) to w.work and reverts it.
func (w *snapWalk) checkRevert(snap []byte, step int) {
	w.t.Helper()
	w.par.CloneInto(w.work)
	parKey := w.key(w.par)
	var buf []byte
	for _, r := range w.par.Rules() {
		if _, err := w.work.Apply(r); err != nil {
			w.applyErrs++
			var unexpected *engine.ErrUnexpected
			if errors.As(err, &unexpected) && unexpected.Machine == "directory(replay)" {
				w.replayErrs++
			}
		}
		w.work.RevertTo(w.par)
		if buf = w.work.AppendSnapshot(buf[:0]); !bytes.Equal(buf, snap) || w.key(w.work) != parKey {
			w.t.Fatalf("%s step %d: %q applied and reverted left the scratch state changed\nwant: %x\ngot:  %x", w.label, step, r, snap, buf)
		}
	}
}

// junkAtDir returns a copy of sys whose stable directory holds a deferred
// message it has no transition for, or nil when there is none to build.
// Any delivery then fails inside drainDirDefers after the directory's
// defer queue was popped — the one mutation no exec call covers.
func junkAtDir(sys *engine.System) *engine.System {
	d := sys.Dir
	st := sys.P.Dir.State(d.State)
	if st == nil || st.Kind != ir.Stable || len(d.DeferQ) > 0 {
		return nil
	}
	for _, md := range sys.P.Msgs {
		if len(sys.P.Dir.Find(d.State, ir.MsgEvent(md.Type))) > 0 {
			continue
		}
		j := sys.Clone()
		j.Dir.DeferQ = append(j.Dir.DeferQ, engine.Msg{
			Type: string(md.Type), Src: 0, Dst: sys.DirID(), Req: engine.NoID, Class: int(md.Class),
		})
		return j
	}
	return nil
}

// walkSnap drives one random schedule, checking both properties at every
// step on the walk's own state and on its junk-at-directory variant.
func walkSnap(t *testing.T, w *snapWalk, p *ir.Protocol, caches int, seed int64, steps int) {
	t.Helper()
	cfg := engine.Config{Caches: caches, Capacity: 6, Values: 2}
	sys := engine.NewSystem(p, cfg)
	w.enc = engine.NewEncoder(p)
	w.par, w.work = engine.NewSystem(p, cfg), engine.NewSystem(p, cfg)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		w.checkRevert(w.checkRestore(sys, i), i)
		if j := junkAtDir(sys); j != nil {
			w.checkRevert(w.checkRestore(j, i), i)
		}
		rules := sys.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			// A half-applied state is still a state: round-trip it too.
			w.checkRestore(sys, i+1)
			break
		}
	}
}

func TestSnapshotRevertRegistry(t *testing.T) {
	w := &snapWalk{t: t}
	eachRegistryProtocol(t, func(label string, p *ir.Protocol) {
		for _, caches := range []int{2, 3, 4} {
			for seed := int64(0); seed < 6; seed++ {
				w.label = fmt.Sprintf("%s caches=%d seed=%d", label, caches, seed)
				walkSnap(t, w, p, caches, seed, 60)
			}
		}
	})
	// Without failing applies — and failing replays in particular — the
	// revert property proves less than it claims.
	if w.applyErrs == 0 || w.replayErrs == 0 {
		t.Errorf("sweep reverted %d failed applies, %d of them failed directory replays; want both > 0", w.applyErrs, w.replayErrs)
	}
}

func TestSnapshotRevertFuzzSpecs(t *testing.T) {
	w := &snapWalk{t: t}
	eachFuzzProtocol(t, func(label string, p *ir.Protocol, simSeed int64) {
		w.label = label
		walkSnap(t, w, p, 3, simSeed, 40)
	})
}

// TestSnapshotKeepsUndeclaredStateName: a controller parked in a state
// the machine never declared (StIdx < 0) has only its name to go by; the
// record carries it.
func TestSnapshotKeepsUndeclaredStateName(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Caches: 2, Capacity: 6, Values: 2}
	sys := engine.NewSystem(p, cfg)
	sys.Caches[1].State, sys.Caches[1].StIdx = "Nowhere", -1
	dst := engine.NewSystem(p, cfg)
	dst.Restore(sys.AppendSnapshot(nil))
	if c := dst.Caches[1]; c.State != "Nowhere" || c.StIdx != -1 {
		t.Fatalf("restored cache 1 in %s/%d, want Nowhere/-1", c.State, c.StIdx)
	}
	if c := dst.Caches[0]; c.State != sys.Caches[0].State || c.StIdx != sys.Caches[0].StIdx {
		t.Fatalf("restored cache 0 in %s/%d, want %s/%d", c.State, c.StIdx, sys.Caches[0].State, sys.Caches[0].StIdx)
	}
}

// TestSnapshotSize: the record of a 3-cache MSI state stays a few dozen
// bytes — the frontier's cost per state at rest.
func TestSnapshotSize(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.StallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys := engine.NewSystem(p, engine.Config{Caches: 3, Capacity: 4, Values: 1})
	rng := rand.New(rand.NewSource(3))
	total, n := 0, 0
	for i := 0; i < 2000; i++ {
		rules := sys.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			t.Fatal(err)
		}
		total += len(sys.AppendSnapshot(nil))
		n++
	}
	if avg := float64(total) / float64(n); avg > 80 {
		t.Errorf("average snapshot is %.1f B over %d states; want under 80", avg, n)
	} else {
		t.Logf("average snapshot %.1f B over %d states", avg, n)
	}
	if strings.Contains(string(sys.AppendSnapshot(nil)), "GetS") {
		t.Error("snapshot carries a message type name; it must carry the index")
	}
}
