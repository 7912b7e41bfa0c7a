package protogen_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
