package litmus

import (
	"fmt"
	"strings"
)

// The catalog uses two fixed addresses: x is address 0, y is address 1.
// Register names follow the litmus literature (a, b, c, d for loads;
// s-prefixed for recorded store positions); outcomes qualify them by
// thread ("t1.a").
const (
	x = 0
	y = 1
)

func load(addr int, reg string) Op   { return Op{Kind: OLoad, Addr: addr, Reg: reg} }
func store(addr int) Op              { return Op{Kind: OStore, Addr: addr} }
func storeR(addr int, reg string) Op { return Op{Kind: OStore, Addr: addr, Reg: reg} }
func acq() Op                        { return Op{Kind: OAcquire} }

// never is the weak-axiom predicate of shapes with no same-location
// constraint: a fully relaxed (but coherent) model forbids nothing.
func never(Outcome) bool { return false }

// MP is message passing: t0 publishes data (x) then a flag (y); t1
// reads the flag then — optionally after an acquire — the data.
// Observing the new flag with stale data is forbidden under SC and TSO
// (both preserve W→W and R→R order); a lazy protocol may exhibit it
// until an acquire fence, which restores the order under every axiom.
func MP(withAcquire bool) *Test {
	t1 := []Op{load(y, "rf")}
	if withAcquire {
		t1 = append(t1, acq())
	}
	t1 = append(t1, load(x, "rd"))
	name, doc := "MP", "message passing: W x; W y || R y; R x"
	if withAcquire {
		name, doc = "MP+acq", "message passing with acquire before the data read"
	}
	cond := func(o Outcome) bool { return o["t1.rf"] == 1 && o["t1.rd"] == 0 }
	weak := never
	if withAcquire {
		weak = cond // the acquire restores the order even under Weak
	}
	return &Test{
		Name:    name,
		Doc:     doc,
		Addrs:   2,
		Threads: [][]Op{{store(x), store(y)}, t1},
		Warm:    map[int][]int{1: {x}}, // t1 holds data stale in Shared
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: weak},
	}
}

// SB is store buffering: both threads store one address and read the
// other. Both reads returning 0 is forbidden under SC but is THE
// signature TSO relaxation (each store sits in its core's write buffer
// past the other's read).
func SB() *Test {
	cond := func(o Outcome) bool { return o["t0.ry"] == 0 && o["t1.rx"] == 0 }
	return &Test{
		Name:    "SB",
		Doc:     "store buffering: W x; R y || W y; R x",
		Addrs:   2,
		Threads: [][]Op{{store(x), load(y, "ry")}, {store(y), load(x, "rx")}},
		Warm:    map[int][]int{0: {y}, 1: {x}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: never, Weak: never},
	}
}

// CoRR is coherence read-read: two program-ordered loads of one
// address must not observe values moving backward in coherence order.
// Forbidden under every axiom — this is per-location SC, which even
// lazy protocols preserve.
func CoRR() *Test {
	cond := func(o Outcome) bool { return o["t1.r1"] > o["t1.r2"] }
	return &Test{
		Name:    "CoRR",
		Doc:     "coherence read-read: W x || R x; R x",
		Addrs:   1,
		Threads: [][]Op{{store(x)}, {load(x, "r1"), load(x, "r2")}},
		Warm:    map[int][]int{1: {x}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: cond},
	}
}

// CoWR is coherence write-read: a thread's load after its own store
// must observe that store or one coherence-after it, under every axiom.
func CoWR() *Test {
	cond := func(o Outcome) bool { return o["t0.r0"] < o["t0.s0"] }
	return &Test{
		Name:    "CoWR",
		Doc:     "coherence write-read: W x; R x || W x",
		Addrs:   1,
		Threads: [][]Op{{storeR(x, "s0"), load(x, "r0")}, {store(x)}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: cond},
	}
}

// CoRW1 is coherence read-write in one thread: a load must not observe
// the same thread's program-order-later store.
func CoRW1() *Test {
	cond := func(o Outcome) bool { return o["t0.r"] >= 1 }
	return &Test{
		Name:    "CoRW1",
		Doc:     "coherence read-write: R x; W x (single thread)",
		Addrs:   1,
		Threads: [][]Op{{load(x, "r"), store(x)}},
		Warm:    map[int][]int{0: {x}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: cond},
	}
}

// CoRW2 adds a second writer: t0's load must observe a value
// coherence-before t0's own later store, so reading t1's store is legal
// only when that store lost the coherence race.
func CoRW2() *Test {
	cond := func(o Outcome) bool { return o["t0.r"] >= o["t0.s0"] }
	return &Test{
		Name:    "CoRW2",
		Doc:     "coherence read-write: R x; W x || W x",
		Addrs:   1,
		Threads: [][]Op{{load(x, "r"), storeR(x, "s0")}, {store(x)}},
		Warm:    map[int][]int{0: {x}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: cond},
	}
}

// IRIW is independent reads of independent writes: two writers, two
// readers observing them in opposite orders. Forbidden under SC and TSO
// (both are multi-copy atomic); a non-atomic weak machine allows it,
// but acquires between the reads restore it even there.
func IRIW(withAcquire bool) *Test {
	t2 := []Op{load(x, "a")}
	t3 := []Op{load(y, "c")}
	if withAcquire {
		t2, t3 = append(t2, acq()), append(t3, acq())
	}
	t2 = append(t2, load(y, "b"))
	t3 = append(t3, load(x, "d"))
	name, doc := "IRIW", "independent reads of independent writes"
	if withAcquire {
		name, doc = "IRIW+acq", "IRIW with acquires between the reads"
	}
	cond := func(o Outcome) bool {
		return o["t2.a"] == 1 && o["t2.b"] == 0 && o["t3.c"] == 1 && o["t3.d"] == 0
	}
	weak := never
	if withAcquire {
		weak = cond
	}
	return &Test{
		Name:    name,
		Doc:     doc,
		Addrs:   2,
		Threads: [][]Op{{store(x)}, {store(y)}, t2, t3},
		Warm:    map[int][]int{2: {x, y}, 3: {x, y}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: weak},
	}
}

// WRC is write-to-read causality: t1 observes t0's write and then
// publishes a flag; t2 observing the flag must observe the original
// write. Forbidden under SC and TSO (causality is transitive there);
// weak machines need the acquire.
func WRC(withAcquire bool) *Test {
	t2 := []Op{load(y, "b")}
	if withAcquire {
		t2 = append(t2, acq())
	}
	t2 = append(t2, load(x, "c"))
	name, doc := "WRC", "write-to-read causality: W x || R x; W y || R y; R x"
	if withAcquire {
		name, doc = "WRC+acq", "WRC with an acquire before the final read"
	}
	cond := func(o Outcome) bool {
		return o["t1.a"] == 1 && o["t2.b"] == 1 && o["t2.c"] == 0
	}
	weak := never
	if withAcquire {
		weak = cond
	}
	return &Test{
		Name:    name,
		Doc:     doc,
		Addrs:   2,
		Threads: [][]Op{{store(x)}, {load(x, "a"), store(y)}, t2},
		Warm:    map[int][]int{1: {x}, 2: {x, y}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: weak},
	}
}

// LB is load buffering: each thread reads one address then stores the
// other; both loads observing the other thread's later store requires
// R→W reordering, forbidden under SC and TSO. (In-order blocking cores
// can never exhibit it, so its relaxed outcome stays unobserved even
// on lazy protocols — the axiom table still permits it under Weak.)
func LB() *Test {
	cond := func(o Outcome) bool { return o["t0.a"] == 1 && o["t1.b"] == 1 }
	return &Test{
		Name:    "LB",
		Doc:     "load buffering: R x; W y || R y; W x",
		Addrs:   2,
		Threads: [][]Op{{load(x, "a"), store(y)}, {load(y, "b"), store(x)}},
		Warm:    map[int][]int{0: {x}, 1: {y}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: never},
	}
}

// R composes write-write order with store buffering: forbidden under SC
// when t1's y-store wins the coherence race yet its read still misses
// t0's x-store; TSO allows it (the read bypasses t1's buffered store).
func R() *Test {
	cond := func(o Outcome) bool { return o["t1.s1"] > o["t0.s0"] && o["t1.a"] == 0 }
	return &Test{
		Name:    "R",
		Doc:     "R: W x; W y || W y; R x",
		Addrs:   2,
		Threads: [][]Op{{store(x), storeR(y, "s0")}, {storeR(y, "s1"), load(x, "a")}},
		Warm:    map[int][]int{1: {x}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: never, Weak: never},
	}
}

// S composes write-write order with read-write order: forbidden under
// SC and TSO when t1 observes t0's y-store but t1's x-store still loses
// the coherence race to t0's earlier x-store (requires W→W or R→W
// relaxation, which TSO forbids).
func S() *Test {
	cond := func(o Outcome) bool { return o["t1.r"] == 1 && o["t1.s1"] < o["t0.s0"] }
	return &Test{
		Name:    "S",
		Doc:     "S: W x; W y || R y; W x",
		Addrs:   2,
		Threads: [][]Op{{storeR(x, "s0"), store(y)}, {load(y, "r"), storeR(x, "s1")}},
		Warm:    map[int][]int{1: {y}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: never},
	}
}

// TwoPlusTwoW is 2+2W: both threads write both addresses in opposite
// orders; both second writes landing coherence-FIRST (so both first
// writes land last) closes the po∪co cycle t0.Wx → t0.Wy →co t1.Wy →
// t1.Wx →co t0.Wx, which requires W→W reordering — forbidden under SC
// and TSO. (Both second writes landing last is just the serialization
// t1.Wy t0.Wx t0.Wy t1.Wx, perfectly SC.)
func TwoPlusTwoW() *Test {
	cond := func(o Outcome) bool { return o["t0.a1"] == 1 && o["t1.b1"] == 1 }
	return &Test{
		Name:    "2+2W",
		Doc:     "2+2W: W x; W y || W y; W x",
		Addrs:   2,
		Threads: [][]Op{{storeR(x, "a0"), storeR(y, "a1")}, {storeR(y, "b0"), storeR(x, "b1")}},
		forbid:  map[Axiom]func(Outcome) bool{SC: cond, TSO: cond, Weak: never},
	}
}

// Catalog lists every shipped litmus test in canonical order.
func Catalog() []*Test {
	return []*Test{
		MP(false), MP(true),
		SB(),
		CoRR(), CoWR(), CoRW1(), CoRW2(),
		IRIW(false), IRIW(true),
		WRC(false), WRC(true),
		LB(), R(), S(), TwoPlusTwoW(),
	}
}

// QuickSuite is the two-thread subset the fuzz campaign runs per seed:
// cheap to explore exhaustively, yet covering message passing, store
// buffering and every per-location coherence shape.
func QuickSuite() []*Test {
	return []*Test{MP(false), MP(true), SB(), CoRR(), CoWR(), CoRW2()}
}

// ByName resolves catalog tests from a comma-separated name list; an
// empty list resolves to the full catalog.
func ByName(names []string) ([]*Test, error) {
	if len(names) == 0 {
		return Catalog(), nil
	}
	idx := map[string]*Test{}
	for _, t := range Catalog() {
		idx[t.Name] = t
	}
	var out []*Test
	for _, n := range names {
		t, ok := idx[n]
		if !ok {
			return nil, fmt.Errorf("unknown litmus test %q (have %s)", n, strings.Join(Names(), ", "))
		}
		out = append(out, t)
	}
	return out, nil
}

// Names lists the catalog test names in canonical order.
func Names() []string {
	var out []string
	for _, t := range Catalog() {
		out = append(out, t.Name)
	}
	return out
}
