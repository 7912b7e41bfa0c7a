package protogen_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goFiles lists every Go source file under the repo root, skipping
// dot-directories and fixture directories.
func goFiles(t *testing.T) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "corpus") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPackageDocComments enforces the repo's godoc floor with nothing
// but the standard library (the no-new-deps stand-in for revive's
// package-comments rule, run as a CI step): every package in the module
// — internal/*, cmd/*, examples/*, and the root protogen package — must
// carry a substantive package comment ("Package x ..." for libraries,
// "Command x ..." for binaries) so `go doc` output is self-explanatory.
func TestPackageDocComments(t *testing.T) {
	const minDocLen = 60 // a sentence, not a placeholder
	pkgDirs := map[string][]string{}
	for _, path := range goFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			pkgDirs[dir] = append(pkgDirs[dir], path)
		}
	}
	if len(pkgDirs) < 15 {
		t.Fatalf("walk found only %d packages — test is miswired", len(pkgDirs))
	}
	fset := token.NewFileSet()
	for dir, files := range pkgDirs {
		var best string
		pkgName := ""
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			pkgName = f.Name.Name
			if f.Doc != nil && len(f.Doc.Text()) > len(best) {
				best = f.Doc.Text()
			}
		}
		switch {
		case best == "":
			t.Errorf("%s: package %s has no package comment in any file", dir, pkgName)
		case len(best) < minDocLen:
			t.Errorf("%s: package comment is a stub (%d chars, want ≥ %d): %q", dir, len(best), minDocLen, best)
		case pkgName == "main" && !strings.HasPrefix(best, "Command "):
			t.Errorf("%s: main-package comment must start with \"Command \": %q", dir, firstLine(best))
		case pkgName != "main" && !strings.HasPrefix(best, "Package "+pkgName):
			t.Errorf("%s: package comment must start with \"Package %s\": %q", dir, pkgName, firstLine(best))
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

var (
	mdName  = regexp.MustCompile(`[\w./-]*\w\.md\b`)
	docPath = regexp.MustCompile("`((?:cmd|internal|examples|bench|docs)/[\\w./*-]*)")
)

// TestDocPathsResolve keeps prose pointing at things that exist: every
// *.md file a Go file names (relative to the repo root or to that file),
// and every backticked cmd/, internal/, examples/, bench/ or docs/ path
// in README.md and docs/*.md. A path that does not exist as written is
// cut at the first dot of its last element (`internal/verify.Check` is a
// symbol in internal/verify), and a `*` makes it a glob that must match.
func TestDocPathsResolve(t *testing.T) {
	exists := func(p string) bool {
		m, err := filepath.Glob(p)
		return err == nil && len(m) > 0
	}
	for _, path := range goFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range mdName.FindAllString(string(src), -1) {
			if !exists(name) && !exists(filepath.Join(filepath.Dir(path), name)) {
				t.Errorf("%s names %s, which does not exist", path, name)
			}
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs/*.md found (%v) — test is miswired", err)
	}
	for _, doc := range append(docs, "README.md") {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPath.FindAllStringSubmatch(string(src), -1) {
			dir, last := filepath.Split(m[1])
			if i := strings.IndexByte(last, '.'); exists(m[1]) || i >= 0 && exists(dir+last[:i]) {
				continue
			}
			t.Errorf("%s names `%s`, which does not exist", doc, m[1])
		}
	}
}

// TestOneFrontDoor keeps the command line's shared surface declared
// once. No non-test file under cmd/ but cmd/protogen/flags.go may
// declare one of the shared flags (or the old -spec), and nothing but
// cmd/protogen's Main may install a signal handler; and outside bench/
// only internal/core may spell the three generation-mode names in one
// composite literal — everything else ranges over core.Modes.
func TestOneFrontDoor(t *testing.T) {
	shared := map[string]bool{"protocol": true, "spec": true, "file": true, "mode": true,
		"caches": true, "parallel": true, "timeout": true, "cache-dir": true}
	str := func(e ast.Expr) string {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, _ := strconv.Unquote(lit.Value)
			return s
		}
		return ""
	}
	fset := token.NewFileSet()
	modeLists := 0
	for _, path := range goFiles(t) {
		path = filepath.ToSlash(path)
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "bench/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cmd := strings.HasPrefix(path, "cmd/")
		var inMain *ast.FuncDecl // cmd/protogen's Main, the one signal handler
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && path == "cmd/protogen/main.go" && fn.Name.Name == "Main" {
				inMain = fn
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !cmd {
					break
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "signal" && sel.Sel.Name == "NotifyContext" &&
					(inMain == nil || n.Pos() < inMain.Pos() || n.End() > inMain.End()) {
					t.Errorf("%s: signal.NotifyContext belongs to cmd/protogen's Main", fset.Position(n.Pos()))
				}
				if path == "cmd/protogen/flags.go" {
					break
				}
				// Every flag-declaring method takes the name first
				// (fs.Int) or second (fs.IntVar, fs.Var).
				for _, arg := range n.Args[:min(2, len(n.Args))] {
					if name := str(arg); shared[name] {
						t.Errorf("%s: flag -%s is declared in cmd/protogen/flags.go, not per verb", fset.Position(n.Pos()), name)
					}
				}
			case *ast.CompositeLit:
				seen := map[string]bool{}
				for _, e := range n.Elts {
					seen[str(e)] = true
				}
				if seen["stalling"] && seen["nonstalling"] && seen["deferred"] {
					modeLists++
					if path != "internal/core/options.go" {
						t.Errorf("%s: the mode list is core.Modes; range over it", fset.Position(n.Pos()))
					}
				}
			}
			return true
		})
	}
	if modeLists != 1 {
		t.Errorf("found %d mode-name literals, want exactly core.Modes", modeLists)
	}
}

// TestTransWriters keeps ir.Machine's transition index current: outside
// internal/ir, test files included, nothing may assign to a .Trans field
// or one of its elements, sort or copy into it, or set it in a composite
// literal. AddTransition and SetTransitions are the only writers.
func TestTransWriters(t *testing.T) {
	// onTrans reports whether e denotes x.Trans or a part of it.
	var onTrans func(e ast.Expr) bool
	onTrans = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			return e.Sel.Name == "Trans" || onTrans(e.X)
		case *ast.IndexExpr:
			return onTrans(e.X)
		case *ast.SliceExpr:
			return onTrans(e.X)
		case *ast.ParenExpr:
			return onTrans(e.X)
		}
		return false
	}
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		path = filepath.ToSlash(path)
		if strings.HasPrefix(path, "internal/ir/") || strings.HasPrefix(path, "bench/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var w ast.Node
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if onTrans(lhs) {
						w = n
					}
				}
			case *ast.IncDecStmt:
				if onTrans(n.X) {
					w = n
				}
			case *ast.CallExpr:
				name := ""
				switch fn := n.Fun.(type) {
				case *ast.Ident:
					name = fn.Name
				case *ast.SelectorExpr:
					if x, ok := fn.X.(*ast.Ident); ok {
						name = x.Name + "." + fn.Sel.Name
					}
				}
				switch name {
				case "copy", "sort.Slice", "sort.SliceStable", "sort.Sort", "sort.Stable", "slices.Sort", "slices.SortFunc",
					"slices.SortStableFunc", "slices.Reverse":
					if len(n.Args) > 0 && onTrans(n.Args[0]) {
						w = n
					}
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "Trans" {
					w = n
				}
			}
			if w != nil {
				t.Errorf("%s: writes ir.Machine.Trans; use AddTransition or SetTransitions", fset.Position(w.Pos()))
			}
			return true
		})
	}
}
