// Command vethotpath is a repo-specific vet tool guarding the model
// checker's hot path. The engine / verify / store files that earlier
// performance work made allocation-free must stay that way, and the
// usual way they regress is a small "harmless" edit: a fmt.Sprintf in
// a successor loop, a map iteration in canonicalization, a slice
// allocated per loop iteration. This tool makes those patterns a CI
// failure instead of a profiling session.
//
// It speaks the cmd/go vet-tool protocol (the same one
// golang.org/x/tools' unitchecker implements) through the shared
// internal/vet driver — the plumbing cmd/vetconcurrency uses too — so
// it runs as:
//
//	go build -o /tmp/vethotpath ./cmd/vethotpath
//	go vet -vettool=/tmp/vethotpath ./internal/engine ./internal/verify ./internal/store
//
// Running it over ./... is safe: packages outside the hot-path list
// are no-ops.
//
// Checks (all restricted to the hot-path files listed in hotFiles):
//
//	HP001  call to fmt.Sprintf / fmt.Sprint / fmt.Sprintln — each
//	       allocates its result. fmt.Errorf is allowed (error paths
//	       are cold by definition), as are calls inside panic
//	       arguments and inside Error()/String() methods.
//	HP002  range over a map — map iteration allocates its iterator
//	       and its order jitter defeats the deterministic replay the
//	       checker relies on. Exempt inside Error()/String().
//	HP003  append to a slice declared inside the enclosing loop — the
//	       backing array is reallocated every iteration; hoist the
//	       buffer and reuse it.
//	HP004  a name looked up where a step runs: an index expression on
//	       a map whose key type is a string (ir.StateName and
//	       ir.MsgType keys count), or a call to one of the by-name
//	       lookups Layout.EvIndex, Machine.State, Machine.Find and
//	       Event.String. Layouts resolve every name to an index when
//	       they are built, so constructors (functions named New* or
//	       new*) are exempt, as are Error()/String().
//
// A finding on a genuinely cold line inside a hot file is suppressed
// with "//vethotpath:ignore <reason>" on the same line or the line
// above; the reason is mandatory — a bare directive is itself an
// error (HP000). See docs/ANALYSIS.md for the policy.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"protogen/internal/vet"
)

// hotFiles maps an import-path suffix to the file basenames the checks
// apply to — the allocation-free hot path carved out by the checker
// performance work. Everything else is ignored.
var hotFiles = map[string][]string{
	"internal/engine": {"corestep.go", "ctrl.go", "encode.go", "layout.go", "network.go", "snapshot.go", "system.go"},
	"internal/verify": {"verify.go", "reduce.go"},
	"internal/store":  {"store.go"},
}

func main() {
	vet.Main(vet.Tool{
		Name:  "vethotpath",
		Wants: func(importPath string) bool { return len(hotTargets(importPath)) > 0 },
		Check: func(u *vet.Unit) []string {
			return check(u.Fset, u.Files, u.Info, hotTargets(u.ImportPath))
		},
	})
}

// hotTargets resolves the hot-path file set for an import path,
// tolerating cmd/go's test-variant suffixes ("pkg [pkg.test]").
func hotTargets(importPath string) map[string]bool {
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	for suffix, names := range hotFiles {
		if importPath == suffix || strings.HasSuffix(importPath, "/"+suffix) {
			set := make(map[string]bool, len(names))
			for _, n := range names {
				set[n] = true
			}
			return set
		}
	}
	return nil
}

// check runs the passes over every hot-path file and returns the
// rendered diagnostics sorted by position.
func check(fset *token.FileSet, files []*ast.File, info *types.Info, targets map[string]bool) []string {
	var c checker
	c.fset, c.info = fset, info
	for _, f := range files {
		base := filepath.Base(fset.Position(f.Pos()).Filename)
		if !targets[base] || strings.HasSuffix(base, "_test.go") {
			continue
		}
		var bare []string
		c.suppressed, bare = vet.Directives(fset, f, "vethotpath", "HP000")
		c.diags = append(c.diags, bare...)
		c.checkFile(f)
	}
	// Nested loops make the HP003 walk revisit inner bodies; sort and
	// deduplicate instead of tracking visitation.
	sort.Strings(c.diags)
	out := c.diags[:0]
	for i, d := range c.diags {
		if i == 0 || d != c.diags[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// checker carries one run's state.
type checker struct {
	fset       *token.FileSet
	info       *types.Info
	suppressed map[int]bool
	diags      []string
}

func (c *checker) report(pos token.Pos, code, msg string) {
	p := c.fset.Position(pos)
	if vet.Suppressed(c.suppressed, p) {
		return
	}
	c.diags = append(c.diags, fmt.Sprintf("%s: [%s] %s", p, code, msg))
}

// checkFile walks one file's declarations. The exemption context
// (cold rendering methods, panic arguments) is tracked on the way
// down, so the passes themselves stay position-local.
func (c *checker) checkFile(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if ok && fd.Recv != nil && (fd.Name.Name == "Error" || fd.Name.Name == "String") {
			// Rendering methods run when something is already being
			// reported — cold by construction.
			continue
		}
		// A constructor is where names are meant to be resolved.
		ctor := ok && (strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "new"))
		ast.Inspect(decl, c.visit(false, ctor))
	}
}

// visit returns the inspection closure; inPanic marks that the walk is
// inside a panic(...) argument list, inCtor that it is inside a
// constructor.
func (c *checker) visit(inPanic, inCtor bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				// The message built for a panic is the last thing the
				// process allocates; walk the args in exempt mode.
				for _, a := range n.Args {
					ast.Inspect(a, c.visit(true, inCtor))
				}
				return false
			}
			if !inPanic {
				c.checkSprint(n)
			}
			if !inCtor {
				c.checkNameCall(n)
			}
		case *ast.IndexExpr:
			if !inCtor {
				c.checkNameIndex(n)
			}
		case *ast.RangeStmt:
			c.checkMapRange(n)
			c.checkLoopAppend(n.Body)
		case *ast.ForStmt:
			c.checkLoopAppend(n.Body)
		}
		return true
	}
}

// checkSprint is HP001: fmt.Sprintf / Sprint / Sprintln allocate their
// result on every call. fmt.Errorf is deliberately allowed — error
// construction is a cold path.
func (c *checker) checkSprint(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Sprintf", "Sprint", "Sprintln":
	default:
		return
	}
	pn, ok := c.info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "fmt" {
		return
	}
	c.report(call.Pos(), "HP001",
		fmt.Sprintf("fmt.%s allocates on the hot path; build into a reused buffer or move the formatting to the cold side", sel.Sel.Name))
}

// checkMapRange is HP002: ranging over a map allocates the iterator
// and yields a nondeterministic order.
func (c *checker) checkMapRange(rs *ast.RangeStmt) {
	tv, ok := c.info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		c.report(rs.Pos(), "HP002",
			"range over a map on the hot path: the iterator allocates and the order is nondeterministic; keep a sorted slice alongside")
	}
}

// checkLoopAppend is HP003: `s = append(s, ...)` where s is declared
// inside the same loop body reallocates the backing array every
// iteration. The declaration set is resolved through the type
// checker's Defs, so shadowing and nested scopes are handled.
func (c *checker) checkLoopAppend(body *ast.BlockStmt) {
	local := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.info.Defs[id]
		if obj == nil {
			return true
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
			local[obj] = true
		}
		return true
	})
	if len(local) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			return true
		}
		arg, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.info.Uses[arg]
		if obj == nil {
			obj = c.info.Defs[arg]
		}
		if obj != nil && local[obj] {
			c.report(as.Pos(), "HP003",
				fmt.Sprintf("append to %s, declared inside this loop: the buffer reallocates every iteration; hoist it out and reuse with buf = buf[:0]", arg.Name))
		}
		return true
	})
}

// checkNameIndex is HP004's first half: indexing a map by a string
// hashes the name, every time the line runs.
func (c *checker) checkNameIndex(ix *ast.IndexExpr) {
	tv, ok := c.info.Types[ix.X]
	if !ok {
		return
	}
	m, ok := tv.Type.Underlying().(*types.Map)
	if !ok {
		return
	}
	if b, ok := m.Key().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		c.report(ix.Pos(), "HP004",
			"map indexed by a name on the hot path: resolve it to a slot when the layout is built and index a slice here")
	}
}

// byName lists the lookups that take or render a name, as receiver
// type and method: HP004's second half flags their callers.
var byName = map[string]bool{
	"Layout.EvIndex": true,
	"Machine.State":  true,
	"Machine.Find":   true,
	"Event.String":   true,
}

// checkNameCall is HP004's second half: a call to a by-name lookup.
func (c *checker) checkNameCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	if name := named.Obj().Name() + "." + fn.Name(); byName[name] {
		c.report(call.Pos(), "HP004",
			fmt.Sprintf("%s looks a name up on the hot path: read the index the layout resolved instead", name))
	}
}
