package vet

// This file implements the CC concurrency-discipline analyzers behind
// cmd/vetconcurrency. The codes are stable and documented in
// docs/ANALYSIS.md:
//
//	CC001  guarded-by: a struct field annotated //protogen:guardedby mu
//	       is accessed without the named mutex held on the path through
//	       the enclosing function.
//	CC002  blocking under lock: a channel send/receive, Wait, time.Sleep
//	       or file/network I/O call executes while an annotated guard
//	       mutex is held. A select with a default case is exempt (it
//	       cannot block).
//	CC003  goroutine-leak shape: a go statement whose body contains an
//	       unbounded loop with no visible exit path — no ctx check,
//	       channel receive, range over a channel, or WaitGroup-paired
//	       return.
//	CC004  context discipline: an exported function takes its
//	       context.Context somewhere other than first position, or a
//	       function that already has a ctx parameter passes
//	       context.Background()/TODO() to a callee instead.
//	CC005  atomic/mutex mixing: a sync/atomic operation targets a field
//	       that is guardedby-annotated (or a guarded field has an
//	       atomic type) — two ownership disciplines on one field.
//
// The analysis is deliberately intra-procedural and linear: the held
// set follows statement order, nested control-flow bodies analyze
// against a copy of it (an Unlock inside an if/switch arm that exits
// does not leak out), and function calls are not followed. Three
// structural exemptions keep it near-zero-noise on real code: methods
// whose name ends in "Locked" assert the caller holds the lock; locals
// constructed in-function (composite literal / new, propagated through
// := chains) are "owned" and pre-publication; _test.go files are
// skipped entirely. Residual false positives are suppressed per line
// with //vetconcurrency:ignore <reason> — the reason is mandatory
// (CC000 otherwise). The suite's static verdicts are cross-checked
// dynamically by the full `go test -race ./...` matrix in CI.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// GuardAnnotation is the field annotation grammar the CC001 analyzer
// consumes: a //protogen:guardedby <mutexField> comment on (or directly
// above) a struct field declaration.
const GuardAnnotation = "protogen:guardedby"

// concurrencyTargets lists the import-path suffixes vetconcurrency
// analyzes — every package that owns goroutines, mutexes, or annotated
// shared state — plus the root "protogen" package matched exactly.
var concurrencyTargets = []string{
	"internal/store",
	"internal/service",
	"internal/verify",
	"internal/fuzz",
	"internal/engine",
	"internal/sim",
	"internal/jobstore",
	"internal/bus",
	"internal/linelog",
}

// ConcurrencyTarget reports whether vetconcurrency analyzes the
// package. Suffix matching keeps fixture modules (any module path
// ending in the same suffixes) analyzable in integration tests.
func ConcurrencyTarget(importPath string) bool {
	if importPath == "protogen" {
		return true
	}
	for _, suffix := range concurrencyTargets {
		if importPath == suffix || strings.HasSuffix(importPath, "/"+suffix) {
			return true
		}
	}
	return false
}

// guardInfo is one annotated field's guard binding.
type guardInfo struct {
	structName string
	fieldName  string
	mutexName  string
}

// ccChecker carries one unit's analysis state.
type ccChecker struct {
	fset *token.FileSet
	info *types.Info

	guarded map[types.Object]*guardInfo // annotated field -> guard
	guardMu map[types.Object]bool       // mutex fields named by annotations
	funcs   map[string][]*ast.FuncDecl  // same-package decls by name (CC003)

	suppressed map[int]bool // current file's directive lines
	diags      []string
}

// scanEnv is the per-path analysis state: the lock paths currently
// held (value: whether the mutex is an annotated guard) and the locals
// owned by the enclosing function. Control-flow bodies get a copy of
// held; owned is shared function-wide.
type scanEnv struct {
	held       map[string]bool
	owned      map[types.Object]bool
	cc001off   bool // *Locked method: caller asserts the lock
	commExempt bool // select-with-default comm clause: cannot block
}

func (e *scanEnv) fork() *scanEnv {
	held := make(map[string]bool, len(e.held))
	for k, v := range e.held {
		held[k] = v
	}
	return &scanEnv{held: held, owned: e.owned, cc001off: e.cc001off}
}

// heldGuard returns one held annotated-guard path, or "".
func (e *scanEnv) heldGuard() string {
	for path, isGuard := range e.held {
		if isGuard {
			return path
		}
	}
	return ""
}

// CheckConcurrency runs the CC001–CC005 analyzers over one typechecked
// unit and returns the rendered, unsuppressed diagnostics.
func CheckConcurrency(u *Unit) []string {
	c := &ccChecker{
		fset:    u.Fset,
		info:    u.Info,
		guarded: map[types.Object]*guardInfo{},
		guardMu: map[types.Object]bool{},
		funcs:   map[string][]*ast.FuncDecl{},
	}
	files := make([]*ast.File, 0, len(u.Files))
	for _, f := range u.Files {
		base := filepath.Base(u.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		files = append(files, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				c.funcs[fd.Name.Name] = append(c.funcs[fd.Name.Name], fd)
			}
		}
	}
	// Pass A: collect guard annotations (and their configuration errors)
	// from every file before checking any.
	for _, f := range files {
		c.suppressed, _ = Directives(u.Fset, f, "vetconcurrency", "CC000")
		c.collectGuards(f)
	}
	// Pass B: per-file directive handling plus the function-body scans.
	for _, f := range files {
		var bare []string
		c.suppressed, bare = Directives(u.Fset, f, "vetconcurrency", "CC000")
		c.diags = append(c.diags, bare...)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkSignature(fd)
			env := &scanEnv{
				held:     map[string]bool{},
				owned:    map[types.Object]bool{},
				cc001off: strings.HasSuffix(fd.Name.Name, "Locked"),
			}
			c.scanStmts(fd.Body.List, env)
		}
	}
	return c.diags
}

func (c *ccChecker) report(pos token.Pos, code, msg string) {
	p := c.fset.Position(pos)
	if Suppressed(c.suppressed, p) {
		return
	}
	c.diags = append(c.diags, render(p, code, msg))
}

// collectGuards records every //protogen:guardedby annotation in f:
// which fields are guarded, by which mutex field of the same struct.
func (c *ccChecker) collectGuards(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			muName, ok := guardDirective(field)
			if !ok {
				continue
			}
			if muName == "" {
				c.report(field.Pos(), "CC001", fmt.Sprintf(
					"%s annotation on %s needs a mutex field name", GuardAnnotation, ts.Name.Name))
				continue
			}
			muObj := structFieldObj(c.info, st, muName)
			if muObj == nil {
				c.report(field.Pos(), "CC001", fmt.Sprintf(
					"%s names %q, which is not a field of %s", GuardAnnotation, muName, ts.Name.Name))
				continue
			}
			c.guardMu[muObj] = true
			for _, name := range field.Names {
				obj := c.info.Defs[name]
				if obj == nil {
					continue
				}
				c.guarded[obj] = &guardInfo{
					structName: ts.Name.Name, fieldName: name.Name, mutexName: muName,
				}
				if p := namedPkgPath(obj.Type()); p == "sync/atomic" {
					c.report(name.Pos(), "CC005", fmt.Sprintf(
						"%s.%s has an atomic type and a guardedby annotation; pick one discipline",
						ts.Name.Name, name.Name))
				}
			}
		}
		return true
	})
}

// guardDirective extracts the mutex name from a field's guardedby
// annotation (trailing comment or doc line), reporting presence.
func guardDirective(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
			if !strings.HasPrefix(text, GuardAnnotation) {
				continue
			}
			rest := strings.Fields(strings.TrimPrefix(text, GuardAnnotation))
			if len(rest) == 0 {
				return "", true
			}
			return rest[0], true
		}
	}
	return "", false
}

// structFieldObj finds the declared object of st's field named name.
func structFieldObj(info *types.Info, st *ast.StructType, name string) types.Object {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				return info.Defs[id]
			}
		}
	}
	return nil
}

// ---- statement scan (held-set tracking) ----

func (c *ccChecker) scanStmts(list []ast.Stmt, env *scanEnv) {
	for _, st := range list {
		c.scanStmt(st, env)
	}
}

func (c *ccChecker) scanStmt(st ast.Stmt, env *scanEnv) {
	switch n := st.(type) {
	case nil:
	case *ast.ExprStmt:
		if c.applyLockOp(n.X, env) {
			return
		}
		c.checkExpr(n.X, env)
	case *ast.SendStmt:
		if guard := env.heldGuard(); guard != "" && !env.commExempt {
			c.report(n.Arrow, "CC002", fmt.Sprintf(
				"channel send while holding guard mutex %s can block the lock; move it outside the critical section or use a select with default", guard))
		}
		c.checkExpr(n.Chan, env)
		c.checkExpr(n.Value, env)
	case *ast.IncDecStmt:
		c.checkExpr(n.X, env)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			c.checkExpr(e, env)
		}
		for _, e := range n.Lhs {
			c.checkExpr(e, env)
		}
		c.markOwned(n, env)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					c.checkExpr(v, env)
					if i < len(vs.Names) && ownedExpr(v, c.info, env) {
						if obj := c.info.Defs[vs.Names[i]]; obj != nil {
							env.owned[obj] = true
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			c.checkExpr(e, env)
		}
	case *ast.IfStmt:
		c.scanStmt(n.Init, env)
		c.checkExpr(n.Cond, env)
		c.scanStmts(n.Body.List, env.fork())
		if n.Else != nil {
			c.scanStmt(n.Else, env.fork())
		}
	case *ast.ForStmt:
		inner := env.fork()
		c.scanStmt(n.Init, inner)
		c.checkExpr(n.Cond, inner)
		c.scanStmts(n.Body.List, inner)
		c.scanStmt(n.Post, inner)
	case *ast.RangeStmt:
		c.checkExpr(n.X, env)
		if guard := env.heldGuard(); guard != "" && isChanType(c.info, n.X) {
			c.report(n.Pos(), "CC002", fmt.Sprintf(
				"range over a channel while holding guard mutex %s blocks the lock between messages", guard))
		}
		c.scanStmts(n.Body.List, env.fork())
	case *ast.SwitchStmt:
		c.scanStmt(n.Init, env)
		c.checkExpr(n.Tag, env)
		for _, cc := range n.Body.List {
			cl := cc.(*ast.CaseClause)
			inner := env.fork()
			for _, e := range cl.List {
				c.checkExpr(e, inner)
			}
			c.scanStmts(cl.Body, inner)
		}
	case *ast.TypeSwitchStmt:
		c.scanStmt(n.Init, env)
		c.scanStmt(n.Assign, env)
		for _, cc := range n.Body.List {
			cl := cc.(*ast.CaseClause)
			c.scanStmts(cl.Body, env.fork())
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range n.Body.List {
			if cc.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		for _, cc := range n.Body.List {
			cl := cc.(*ast.CommClause)
			inner := env.fork()
			if cl.Comm != nil {
				inner.commExempt = hasDefault
				c.scanStmt(cl.Comm, inner)
				inner.commExempt = false
			}
			c.scanStmts(cl.Body, inner)
		}
	case *ast.BlockStmt:
		c.scanStmts(n.List, env)
	case *ast.LabeledStmt:
		c.scanStmt(n.Stmt, env)
	case *ast.GoStmt:
		c.checkGoStmt(n, env)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to the end of the
		// function; a deferred anything-else runs after the critical
		// section, so it is not checked against the current held set.
		if name, _, ok := lockMethod(c.info, n.Call); ok && (name == "Unlock" || name == "RUnlock") {
			return
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			c.scanFuncLit(lit, env)
			return
		}
		for _, a := range n.Call.Args {
			c.checkExpr(a, env)
		}
	}
}

// applyLockOp updates the held set for a Lock/RLock/Unlock/RUnlock
// call statement, reporting whether the expression was one.
func (c *ccChecker) applyLockOp(e ast.Expr, env *scanEnv) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	name, recv, ok := lockMethod(c.info, call)
	if !ok {
		return false
	}
	path := exprPath(recv)
	switch name {
	case "Lock", "RLock":
		env.held[path] = c.isGuardMutex(recv)
	case "Unlock", "RUnlock":
		delete(env.held, path)
	}
	return true
}

// lockMethod matches a call of the form <expr>.Lock()/RLock()/
// Unlock()/RUnlock() on a sync.Mutex or sync.RWMutex value.
func lockMethod(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil, false
	}
	tv, have := info.Types[sel.X]
	if !have {
		return "", nil, false
	}
	if p, n := namedPkgPathName(tv.Type); p != "sync" || (n != "Mutex" && n != "RWMutex") {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

// isGuardMutex reports whether the lock receiver is a mutex field some
// guardedby annotation names.
func (c *ccChecker) isGuardMutex(recv ast.Expr) bool {
	sel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := c.info.Selections[sel]
	return s != nil && s.Kind() == types.FieldVal && c.guardMu[s.Obj()]
}

// markOwned records := targets constructed in-function (composite
// literal, new, or derived from an already-owned local) as owned:
// pre-publication state needs no lock.
func (c *ccChecker) markOwned(as *ast.AssignStmt, env *scanEnv) {
	if as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.info.Defs[id]
		if obj == nil || !ownedExpr(as.Rhs[i], c.info, env) {
			continue
		}
		env.owned[obj] = true
	}
}

// ownedExpr reports whether e evaluates to in-function-constructed
// state: a composite literal, new(T), or a projection of an owned
// local (s := &t.shards[i] stays owned when t is).
func ownedExpr(e ast.Expr, info *types.Info, env *scanEnv) bool {
	switch n := e.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			return ownedExpr(n.X, info, env)
		}
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && info.Uses[id] == nil {
			return true
		}
	}
	if base := baseIdent(e); base != nil {
		return env.owned[info.Uses[base]]
	}
	return false
}

// ---- expression checks (CC001, CC002 receive/call, CC005) ----

func (c *ccChecker) checkExpr(e ast.Expr, env *scanEnv) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.scanFuncLit(n, env)
			return false
		case *ast.SelectorExpr:
			c.checkGuardedAccess(n, env)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !env.commExempt {
				if guard := env.heldGuard(); guard != "" {
					c.report(n.Pos(), "CC002", fmt.Sprintf(
						"channel receive while holding guard mutex %s can block the lock", guard))
				}
			}
		case *ast.CallExpr:
			c.checkBlockingCall(n, env)
			c.checkAtomicMix(n)
		}
		return true
	})
}

// scanFuncLit analyzes a closure body with an empty held set: the
// literal runs later (callback, goroutine), not under the current
// locks. Owned locals are inherited — a closure over pre-publication
// state is still construction.
func (c *ccChecker) scanFuncLit(lit *ast.FuncLit, env *scanEnv) {
	c.scanStmts(lit.Body.List, &scanEnv{held: map[string]bool{}, owned: env.owned})
}

// checkGuardedAccess is CC001: a guarded field access requires
// <base>.<mutex> in the held set, unless the base is owned or the
// function asserts the lock by *Locked naming.
func (c *ccChecker) checkGuardedAccess(sel *ast.SelectorExpr, env *scanEnv) {
	if env.cc001off {
		return
	}
	s := c.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	gi := c.guarded[s.Obj()]
	if gi == nil {
		return
	}
	if base := baseIdent(sel.X); base != nil && env.owned[c.info.Uses[base]] {
		return
	}
	need := exprPath(sel.X) + "." + gi.mutexName
	if _, ok := env.held[need]; ok {
		return
	}
	c.report(sel.Sel.Pos(), "CC001", fmt.Sprintf(
		"%s.%s is guarded by %s; access without holding %s",
		gi.structName, gi.fieldName, gi.mutexName, need))
}

// ioPkgs are the stdlib packages whose calls CC002 treats as file or
// network I/O when made under an annotated guard mutex.
var ioPkgs = map[string]bool{
	"os": true, "io": true, "net": true, "net/http": true, "bufio": true,
}

// checkBlockingCall is the CC002 call half: Wait, time.Sleep, and
// I/O-package calls under a held guard mutex.
func (c *ccChecker) checkBlockingCall(call *ast.CallExpr, env *scanEnv) {
	guard := env.heldGuard()
	if guard == "" {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := c.info.Uses[id].(*types.PkgName); ok {
			p := pn.Imported().Path()
			switch {
			case p == "time" && name == "Sleep":
				c.report(call.Pos(), "CC002", fmt.Sprintf(
					"time.Sleep while holding guard mutex %s", guard))
			case ioPkgs[p] && !strings.HasPrefix(name, "Is") && name != "Getenv" && name != "Environ":
				c.report(call.Pos(), "CC002", fmt.Sprintf(
					"%s.%s (file/network I/O) while holding guard mutex %s; move the I/O outside the critical section", p, name, guard))
			}
			return
		}
	}
	tv, have := c.info.Types[sel.X]
	if !have {
		return
	}
	recvPkg := namedPkgPath(tv.Type)
	switch {
	case name == "Wait" && recvPkg == "sync":
		c.report(call.Pos(), "CC002", fmt.Sprintf(
			"%s.Wait while holding guard mutex %s can deadlock against the goroutines being awaited", exprPath(sel.X), guard))
	case ioPkgs[recvPkg]:
		c.report(call.Pos(), "CC002", fmt.Sprintf(
			"%s.%s (file/network I/O) while holding guard mutex %s; move the I/O outside the critical section", exprPath(sel.X), name, guard))
	}
}

// checkAtomicMix is the CC005 call half: sync/atomic operations whose
// address argument is a guardedby-annotated field.
func (c *ccChecker) checkAtomicMix(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := c.info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return
	}
	for _, arg := range call.Args {
		un, ok := arg.(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			continue
		}
		fsel, ok := un.X.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s := c.info.Selections[fsel]
		if s == nil || s.Kind() != types.FieldVal {
			continue
		}
		if gi := c.guarded[s.Obj()]; gi != nil {
			c.report(call.Pos(), "CC005", fmt.Sprintf(
				"atomic.%s on %s.%s, which is guarded by %s; mixing atomic and mutex access to one field races",
				sel.Sel.Name, gi.structName, gi.fieldName, gi.mutexName))
		}
	}
}

// ---- CC003: goroutine-leak shape ----

// checkGoStmt resolves a go statement's body (function literal, or a
// same-package function/method when unambiguous) and flags unbounded
// loops with no visible exit path.
func (c *ccChecker) checkGoStmt(g *ast.GoStmt, env *scanEnv) {
	for _, a := range g.Call.Args {
		c.checkExpr(a, env)
	}
	var body *ast.BlockStmt
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		c.scanFuncLit(fun, env)
		body = fun.Body
	case *ast.Ident:
		body = c.soleDeclBody(fun.Name)
	case *ast.SelectorExpr:
		c.checkExpr(fun.X, env)
		body = c.soleDeclBody(fun.Sel.Name)
	}
	if body == nil {
		return
	}
	if leaks(body, c.info) {
		c.report(g.Pos(), "CC003",
			"goroutine has an unbounded loop with no visible exit path (ctx check, channel receive, range over a channel, or WaitGroup-paired return); add one or suppress with //vetconcurrency:ignore <reason>")
	}
}

// soleDeclBody returns the body of the package's only declaration of
// name, or nil when absent or ambiguous (overloaded method names).
func (c *ccChecker) soleDeclBody(name string) *ast.BlockStmt {
	if ds := c.funcs[name]; len(ds) == 1 {
		return ds[0].Body
	}
	return nil
}

// leaks reports whether a goroutine body contains an unbounded loop
// (for with no condition) without exit evidence: a range over a
// channel, or a return/break inside the loop paired with a ctx.Err
// check, a channel receive, or a WaitGroup Done.
func leaks(body *ast.BlockStmt, info *types.Info) bool {
	var loops []*ast.ForStmt
	inspectSameFunc(body, func(n ast.Node) {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond == nil {
			loops = append(loops, f)
		}
	})
	if len(loops) == 0 {
		return false
	}
	var ctxErr, recv, wgDone, rangeChan bool
	inspectSameFunc(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				recv = true
			}
		case *ast.RangeStmt:
			if isChanType(info, n.X) {
				rangeChan = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if tv, have := info.Types[sel.X]; have {
					p, tn := namedPkgPathName(tv.Type)
					if sel.Sel.Name == "Err" && p == "context" {
						ctxErr = true
					}
					if sel.Sel.Name == "Done" && p == "sync" && tn == "WaitGroup" {
						wgDone = true
					}
				}
			}
		}
	})
	if rangeChan {
		return false
	}
	for _, lp := range loops {
		exits := false
		inspectSameFunc(lp.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				exits = true
			case *ast.BranchStmt:
				if n.Tok == token.BREAK {
					exits = true
				}
			}
		})
		if !exits {
			return true
		}
	}
	return !(ctxErr || recv || wgDone)
}

// inspectSameFunc walks n without descending into nested function
// literals (their loops and exits belong to a different goroutine).
func inspectSameFunc(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// ---- CC004: context discipline ----

// checkSignature is CC004: exported functions take context.Context
// first, and any function with a ctx parameter threads it rather than
// passing context.Background()/TODO() to callees.
func (c *ccChecker) checkSignature(fd *ast.FuncDecl) {
	hasCtx := false
	idx := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if tv, ok := c.info.Types[field.Type]; ok {
			if p, tn := namedPkgPathName(tv.Type); p == "context" && tn == "Context" {
				hasCtx = true
				if idx > 0 && ast.IsExported(fd.Name.Name) {
					c.report(field.Pos(), "CC004", fmt.Sprintf(
						"exported %s takes context.Context at parameter %d; context must be the first parameter", fd.Name.Name, idx))
				}
			}
		}
		idx += n
	}
	if !hasCtx {
		return
	}
	inspectSameFunc(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		for _, arg := range call.Args {
			inner, ok := arg.(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := inner.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
				continue
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := c.info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "context" {
					c.report(arg.Pos(), "CC004", fmt.Sprintf(
						"%s has a context.Context parameter but passes context.%s() to a callee; thread ctx instead", fd.Name.Name, sel.Sel.Name))
				}
			}
		}
	})
}

// ---- shared type/AST helpers ----

// exprPath renders an expression as a stable lock/access path:
// idents by name, selectors dotted, indexes collapsed to [].
func exprPath(e ast.Expr) string {
	switch n := e.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.SelectorExpr:
		return exprPath(n.X) + "." + n.Sel.Name
	case *ast.IndexExpr:
		return exprPath(n.X) + "[]"
	case *ast.ParenExpr:
		return exprPath(n.X)
	case *ast.StarExpr:
		return exprPath(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			return exprPath(n.X)
		}
	case *ast.CallExpr:
		return exprPath(n.Fun) + "()"
	}
	return "?"
}

// baseIdent returns the leftmost identifier of a selector/index/deref
// chain, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch n := e.(type) {
		case *ast.Ident:
			return n
		case *ast.SelectorExpr:
			e = n.X
		case *ast.IndexExpr:
			e = n.X
		case *ast.ParenExpr:
			e = n.X
		case *ast.StarExpr:
			e = n.X
		case *ast.UnaryExpr:
			e = n.X
		default:
			return nil
		}
	}
}

// namedPkgPathName resolves a (possibly pointer-wrapped) named type to
// its defining package path and type name.
func namedPkgPathName(t types.Type) (string, string) {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path(), obj.Name()
			}
			return "", obj.Name()
		default:
			return "", ""
		}
	}
}

func namedPkgPath(t types.Type) string {
	p, _ := namedPkgPathName(t)
	return p
}

// isChanType reports whether e's static type is a channel.
func isChanType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
