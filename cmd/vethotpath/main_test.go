package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fakeFmt synthesizes just enough of package fmt to typecheck the test
// snippets without export data (modern toolchains ship no .a files for
// the standard library, so importer.Default is unusable in tests).
type fakeFmt struct{}

func (fakeFmt) Import(path string) (*types.Package, error) {
	if path != "fmt" {
		return nil, fmt.Errorf("fake importer: no package %q", path)
	}
	pkg := types.NewPackage("fmt", "fmt")
	str := types.Typ[types.String]
	args := types.NewVar(token.NoPos, pkg, "args", types.NewSlice(types.NewInterfaceType(nil, nil)))
	ret := types.NewTuple(types.NewVar(token.NoPos, pkg, "", str))
	withFormat := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, pkg, "format", str), args), ret, true)
	plain := types.NewSignatureType(nil, nil, nil, types.NewTuple(args), ret, true)
	for name, sig := range map[string]*types.Signature{
		"Sprintf": withFormat, "Errorf": withFormat,
		"Sprint": plain, "Sprintln": plain,
	} {
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, name, sig))
	}
	pkg.MarkComplete()
	return pkg, nil
}

// lint typechecks one snippet as hot.go and returns the diagnostics.
func lint(t *testing.T, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "hot.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	tc := types.Config{Importer: fakeFmt{}}
	if _, err := tc.Check("hot", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return check(fset, []*ast.File{f}, info, map[string]bool{"hot.go": true})
}

// has reports whether some diagnostic carries the code.
func has(diags []string, code string) bool {
	for _, d := range diags {
		if strings.Contains(d, "["+code+"]") {
			return true
		}
	}
	return false
}

func TestSprintChecks(t *testing.T) {
	diags := lint(t, `package hot
import "fmt"
func f(x int) {
	_ = fmt.Sprintf("%d", x)
	_ = fmt.Sprint(x)
	_ = fmt.Sprintln(x)
}`)
	if len(diags) != 3 || !has(diags, "HP001") {
		t.Fatalf("want 3 HP001 findings, got %v", diags)
	}

	clean := lint(t, `package hot
import "fmt"
type E struct{}
func (E) Error() string  { return fmt.Sprintf("err") }
func (E) String() string { return fmt.Sprint("s") }
func g(x int) {
	_ = fmt.Errorf("%d", x)
	if x < 0 {
		panic(fmt.Sprintf("negative %d", x))
	}
	_ = fmt.Sprintf("suppressed %d", x) // vethotpath:ignore — cold in the real code
	// vethotpath:ignore — next line is cold too
	_ = fmt.Sprintf("also suppressed %d", x)
}`)
	if len(clean) != 0 {
		t.Fatalf("exemptions failed: %v", clean)
	}
}

func TestBareIgnoreDirective(t *testing.T) {
	// A directive without a reason is itself an error (HP000) and must
	// not suppress the finding on its line.
	diags := lint(t, `package hot
import "fmt"
func f(x int) {
	_ = fmt.Sprintf("%d", x) // vethotpath:ignore
}`)
	if len(diags) != 2 || !has(diags, "HP000") || !has(diags, "HP001") {
		t.Fatalf("bare directive must yield HP000 and keep the HP001, got %v", diags)
	}
}

func TestMapRangeCheck(t *testing.T) {
	diags := lint(t, `package hot
func f(m map[int]int, s []int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	for _, v := range s {
		total += v
	}
	return total
}`)
	if len(diags) != 1 || !has(diags, "HP002") {
		t.Fatalf("want exactly one HP002 (map, not slice), got %v", diags)
	}
}

func TestLoopAppendCheck(t *testing.T) {
	diags := lint(t, `package hot
func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		local := []int{}
		local = append(local, i)
		total += len(local)
	}
	return total
}`)
	if len(diags) != 1 || !has(diags, "HP003") {
		t.Fatalf("want one HP003, got %v", diags)
	}

	clean := lint(t, `package hot
func f(n int) int {
	total := 0
	buf := make([]int, 0, 8)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		buf = append(buf, i)
		total += len(buf)
	}
	return total
}`)
	if len(clean) != 0 {
		t.Fatalf("hoisted-buffer pattern flagged: %v", clean)
	}
}

// nameLookups declares, in a snippet, the shapes HP004 looks for: maps
// keyed by strings and by named string types, and the by-name lookups.
const nameLookups = `package hot
type StateName string
type Machine struct{ sts map[StateName]int }
func (m *Machine) State(n StateName) int  { return 0 }
func (m *Machine) Find(n StateName) []int { return nil }
type Event struct{}
func (Event) String() string { return "" }
type Layout struct {
	idx  map[string]int
	byID map[int]int
	m    *Machine
}
func (l *Layout) EvIndex(ev string) int { return 0 }
`

func TestNameLookupChecks(t *testing.T) {
	diags := lint(t, nameLookups+`
func step(l *Layout, name string, st StateName, ev Event) int {
	a := l.idx[name]      // string key
	b := l.m.sts[st]      // named string key
	l.idx[name] = a + b   // a store hashes the name too
	c := l.byID[a]        // not a name
	return c + l.EvIndex(name) + l.m.State(st) + len(l.m.Find(st)) + len(ev.String())
}`)
	if len(diags) != 7 || !has(diags, "HP004") {
		t.Fatalf("want 7 HP004 findings (3 map indexes, 4 calls), got %d: %v", len(diags), diags)
	}

	clean := lint(t, nameLookups+`
// Constructors are where names get resolved, exported or not, plain or
// method, closures included.
func NewLayout(m *Machine, names []string) *Layout {
	l := &Layout{idx: map[string]int{}, m: m}
	for i, n := range names {
		l.idx[n] = i
	}
	each := func(n string) int { return l.idx[n] + l.EvIndex(n) }
	_ = each
	return l
}
func (l *Layout) newSlot(name string, st StateName) int { return l.idx[name] + l.m.State(st) }
func cold(l *Layout, name string) int {
	if i, ok := l.idx[name]; ok { // vethotpath:ignore — fallback for hand-built input
		return i
	}
	// vethotpath:ignore — once per run
	return l.EvIndex(name)
}`)
	if len(clean) != 0 {
		t.Fatalf("constructor and suppression exemptions failed: %v", clean)
	}

	bare := lint(t, nameLookups+`
func step(l *Layout, name string) int {
	return l.idx[name] // vethotpath:ignore
}`)
	if len(bare) != 2 || !has(bare, "HP000") || !has(bare, "HP004") {
		t.Fatalf("bare directive must yield HP000 and keep the HP004, got %v", bare)
	}
}

func TestHotTargets(t *testing.T) {
	if hotTargets("protogen/internal/verify") == nil {
		t.Error("hot package not matched")
	}
	if got := hotTargets("protogen/internal/verify [protogen/internal/verify.test]"); got == nil {
		t.Error("test variant not matched")
	}
	if hotTargets("protogen/internal/dsl") != nil {
		t.Error("cold package matched")
	}
	if set := hotTargets("protogen/internal/engine"); !set["encode.go"] || !set["snapshot.go"] || !set["corestep.go"] || set["encode_test.go"] {
		t.Errorf("engine file set wrong: %v", set)
	}
}

// TestGoVetIntegration drives the real protocol: build the tool, run
// `go vet -vettool` over a fixture module with a planted hot-path
// allocation (must fail with HP001) and over this repo's actual
// hot-path packages (must pass — the gate CI enforces).
func TestGoVetIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs go vet")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	tool := filepath.Join(t.TempDir(), "vethotpath")
	if out, err := exec.Command(goTool, "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("build tool: %v\n%s", err, out)
	}

	// Fixture module: the package path suffix puts verify.go on the
	// hot list, and the planted Sprintf must be reported.
	mod := t.TempDir()
	dir := filepath.Join(mod, "internal", "verify")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(mod, "go.mod"), "module fixture\n\ngo 1.21\n")
	writeFile(t, filepath.Join(dir, "verify.go"), `package verify

import "fmt"

// Hot builds a label the hot-path way it must not.
func Hot(x int) string { return fmt.Sprintf("%d", x) }
`)
	cmd := exec.Command(goTool, "vet", "-vettool="+tool, "./...")
	cmd.Dir = mod
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("planted violation not reported; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "HP001") {
		t.Fatalf("stderr lacks HP001:\n%s", stderr.String())
	}

	// The repo's own hot path must be clean (annotated cold lines are
	// suppressed) — this is the CI gate.
	repo := exec.Command(goTool, "vet", "-vettool="+tool,
		"../../internal/engine", "../../internal/verify", "../../internal/store")
	var repoErr bytes.Buffer
	repo.Stderr = &repoErr
	if err := repo.Run(); err != nil {
		t.Fatalf("repo hot path not clean: %v\n%s", err, repoErr.String())
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
