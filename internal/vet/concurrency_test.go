package vet

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// ccLint typechecks one snippet as internal/store of a fixture module
// (a path ConcurrencyTarget accepts) and runs the CC analyzers over it.
// The source importer resolves stdlib imports from GOROOT source, so
// snippets can use sync, context and friends without export data.
func ccLint(t *testing.T, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "store.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("fixture/internal/store", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return CheckConcurrency(&Unit{
		ImportPath: "fixture/internal/store",
		Fset:       fset,
		Files:      []*ast.File{f},
		Info:       info,
		Pkg:        pkg,
	})
}

// has reports whether any diagnostic carries the bracketed code.
func has(diags []string, code string) bool {
	for _, d := range diags {
		if strings.Contains(d, "["+code+"]") {
			return true
		}
	}
	return false
}

func TestCC001UnguardedAccess(t *testing.T) {
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
}

func (s *S) Bad() int  { return s.n }
func (s *S) Good() int { s.mu.Lock(); defer s.mu.Unlock(); return s.n }
`)
	if !has(diags, "CC001") {
		t.Fatalf("unguarded access not flagged: %v", diags)
	}
	if len(diags) != 1 {
		t.Fatalf("locked access flagged too: %v", diags)
	}
}

func TestCC001HeldSetSemantics(t *testing.T) {
	// Explicit Unlock ends the critical section; the access after it
	// must be flagged while the one before it passes.
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
}

func (s *S) M() int {
	s.mu.Lock()
	a := s.n
	s.mu.Unlock()
	return a + s.n
}
`)
	if len(diags) != 1 || !has(diags, "CC001") {
		t.Fatalf("want exactly the post-Unlock access flagged, got %v", diags)
	}
	if !strings.Contains(diags[0], "store.go:14") {
		t.Fatalf("flag landed on the wrong line: %v", diags)
	}
}

func TestCC001UnlockInBranchDoesNotLeakOut(t *testing.T) {
	// An Unlock inside an if arm that returns must not clear the held
	// set on the fallthrough path: copy-on-recurse semantics.
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
}

func (s *S) M(b bool) int {
	s.mu.Lock()
	if b {
		s.mu.Unlock()
		return 0
	}
	v := s.n
	s.mu.Unlock()
	return v
}
`)
	if len(diags) != 0 {
		t.Fatalf("branch-local Unlock leaked into the main path: %v", diags)
	}
}

func TestCC001LockedSuffixAssertsCaller(t *testing.T) {
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
}

func (s *S) bumpLocked() { s.n++ }
`)
	if len(diags) != 0 {
		t.Fatalf("*Locked method flagged: %v", diags)
	}
}

func TestCC001OwnedLocalExempt(t *testing.T) {
	// A struct under construction is pre-publication: no lock needed,
	// including through := projection chains off the owned base.
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
}

func New() *S {
	s := &S{}
	s.n = 1
	p := s
	p.n = 2
	return s
}
`)
	if len(diags) != 0 {
		t.Fatalf("owned constructor state flagged: %v", diags)
	}
}

func TestCC001ClosureDropsHeldSet(t *testing.T) {
	// A closure runs later, not under the current locks: a guarded
	// access inside one is flagged even if built in a critical section.
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
}

func (s *S) M() func() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() int { return s.n }
}
`)
	if len(diags) != 1 || !has(diags, "CC001") {
		t.Fatalf("closure access under a stale held set: %v", diags)
	}
}

func TestCC001AnnotationNamesMissingField(t *testing.T) {
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby lock
}
`)
	if len(diags) != 1 || !has(diags, "CC001") || !strings.Contains(diags[0], `"lock"`) {
		t.Fatalf("bad annotation target not reported: %v", diags)
	}
}

func TestCC002BlockingUnderLock(t *testing.T) {
	diags := ccLint(t, `package store

import (
	"os"
	"sync"
	"time"
)

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
	ch chan int
}

func (s *S) Send() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- s.n
}

func (s *S) Sleep() {
	s.mu.Lock()
	time.Sleep(time.Millisecond)
	s.mu.Unlock()
}

func (s *S) IO() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Mkdir("x", 0o755)
}
`)
	want := []string{"channel send", "time.Sleep", "file/network I/O"}
	for _, w := range want {
		found := false
		for _, d := range diags {
			if strings.Contains(d, "[CC002]") && strings.Contains(d, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no CC002 for %q in %v", w, diags)
		}
	}
}

func TestCC002OnlyGuardMutexes(t *testing.T) {
	// A mutex no annotation names is not a guard: blocking under it is
	// out of scope (the race matrix covers it dynamically).
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) Send() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1
}
`)
	if len(diags) != 0 {
		t.Fatalf("unannotated mutex treated as guard: %v", diags)
	}
}

func TestCC002SelectDefaultExempt(t *testing.T) {
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
	ch chan int
}

func (s *S) TrySend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- s.n:
	default:
	}
}
`)
	if len(diags) != 0 {
		t.Fatalf("non-blocking select flagged: %v", diags)
	}
}

func TestCC003LeakShapes(t *testing.T) {
	diags := ccLint(t, `package store

import "context"

type S struct{ ch chan int }

func (s *S) Leak() {
	go func() {
		n := 0
		for {
			n++
		}
	}()
}

func (s *S) CtxExit(ctx context.Context) {
	go func() {
		for {
			if ctx.Err() != nil {
				return
			}
		}
	}()
}

func (s *S) RangeExit() {
	go func() {
		for v := range s.ch {
			_ = v
		}
	}()
}

func (s *S) worker() {
	for {
		if _, ok := <-s.ch; !ok {
			return
		}
	}
}

func (s *S) NamedWorker() { go s.worker() }
`)
	if len(diags) != 1 || !has(diags, "CC003") {
		t.Fatalf("want exactly the exit-less loop flagged, got %v", diags)
	}
	if !strings.Contains(diags[0], "store.go:8") {
		t.Fatalf("flag landed on the wrong go statement: %v", diags)
	}
}

func TestCC004ContextPlacementAndThreading(t *testing.T) {
	diags := ccLint(t, `package store

import "context"

type S struct{}

func (s *S) RunCtx(name string, ctx context.Context) error { return ctx.Err() }

func (s *S) Check(ctx context.Context) error { return s.RunCtx("x", context.Background()) }

func (s *S) Fine(ctx context.Context, name string) error { return ctx.Err() }
`)
	var placement, threading bool
	for _, d := range diags {
		if !strings.Contains(d, "[CC004]") {
			continue
		}
		if strings.Contains(d, "first parameter") {
			placement = true
		}
		if strings.Contains(d, "context.Background()") {
			threading = true
		}
	}
	if !placement || !threading || len(diags) != 2 {
		t.Fatalf("want one placement and one threading CC004, got %v", diags)
	}
}

func TestCC005AtomicOnGuardedField(t *testing.T) {
	diags := ccLint(t, `package store

import (
	"sync"
	"sync/atomic"
)

type S struct {
	mu sync.Mutex
	n  int64 //protogen:guardedby mu
}

func (s *S) Bump() { atomic.AddInt64(&s.n, 1) }
`)
	if !has(diags, "CC005") {
		t.Fatalf("atomic on guarded field not flagged: %v", diags)
	}
}

func TestCC005AtomicTypedGuardedField(t *testing.T) {
	diags := ccLint(t, `package store

import (
	"sync"
	"sync/atomic"
)

type S struct {
	mu sync.Mutex
	n  atomic.Int64 //protogen:guardedby mu
}
`)
	if len(diags) != 1 || !has(diags, "CC005") {
		t.Fatalf("atomic-typed guarded field not flagged at the annotation: %v", diags)
	}
}

func TestCC000SuppressionRequiresReason(t *testing.T) {
	// A reasoned directive suppresses its line; a bare one is itself a
	// diagnostic and suppresses nothing.
	diags := ccLint(t, `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
}

func (s *S) Reasoned() int {
	return s.n //vetconcurrency:ignore snapshot read; staleness is acceptable here
}

func (s *S) Bare() int {
	return s.n //vetconcurrency:ignore
}
`)
	if has(diags, "CC001") && len(diags) == 2 && has(diags, "CC000") {
		// Expected: the bare site yields CC000 plus its unsuppressed CC001.
		return
	}
	t.Fatalf("want CC000 + unsuppressed CC001 for the bare site only, got %v", diags)
}

func TestCC001TestFilesSkipped(t *testing.T) {
	fset := token.NewFileSet()
	src := `package store

import "sync"

type S struct {
	mu sync.Mutex
	n  int //protogen:guardedby mu
}

func (s *S) Bad() int { return s.n }
`
	f, err := parser.ParseFile(fset, "store_test.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("fixture/internal/store", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckConcurrency(&Unit{
		ImportPath: "fixture/internal/store", Fset: fset,
		Files: []*ast.File{f}, Info: info, Pkg: pkg,
	})
	if len(diags) != 0 {
		t.Fatalf("_test.go sources must be skipped, got %v", diags)
	}
}

func TestConcurrencyTarget(t *testing.T) {
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"protogen", true},
		{"protogen/internal/store", true},
		{"fixture/internal/service", true},
		{"protogen/internal/verify", true},
		{"protogen/internal/fuzz", true},
		{"protogen/internal/engine", true},
		{"protogen/internal/sim", true},
		{"protogen/internal/jobstore", true},
		{"protogen/internal/bus", true},
		{"protogen/internal/linelog", true},
		{"protogen/internal/dsl", false},
		{"protogen/cmd/protogen", false},
		{"otherproject", false},
	} {
		if got := ConcurrencyTarget(tc.path); got != tc.want {
			t.Errorf("ConcurrencyTarget(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestSortDiagsDedupes(t *testing.T) {
	got := SortDiags([]string{"b:2: x", "a:1: y", "b:2: x"})
	if len(got) != 2 || got[0] != "a:1: y" || got[1] != "b:2: x" {
		t.Fatalf("SortDiags = %v", got)
	}
}
