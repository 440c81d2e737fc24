package alert

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists exported functions and methods under internal/ and
// client/ that no non-test file names, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"EstimateAll":         "core.Session's naive reference scorer, the oracle the differential tests hold the pruned scan against",
	"HoldTokenForTest":    "netserve test seam: tests in client and netserve saturate the admission gate without racing real traffic",
	"ReleaseTokenForTest": "the other half of HoldTokenForTest",
}

// TestNoTestOnlyExports is the orphan-package check one level down: every
// exported top-level function or method under internal/ or client/ must
// be named by some non-test file of the module or of bench/, outside its
// own declaration. An export only tests reach is a mechanism nothing
// runs. Matching is by name alone, so an unrelated use of the same name
// hides a test-only export; it never flags one that non-test code calls
// by name. A method reached only through a standard-library interface
// (fmt.Stringer, http.Handler) would need an allowlist entry.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		name string
		pos  string
	}
	var decls []decl
	used := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		scoped := strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "client/")
		own := make(map[*ast.Ident]bool) // the names functions are declared under
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if scoped && fn.Name.IsExported() {
				decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found; the walker is likely broken")
	}
	var hits []string
	for _, d := range decls {
		if !used[d.name] && testOnlyAllowed[d.name] == "" {
			hits = append(hits, d.pos+": "+d.name)
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Errorf("%s is named by no non-test file: delete it or allowlist it with a reason", h)
	}
	for name := range testOnlyAllowed {
		if used[name] {
			t.Errorf("allowlisted %s is used by a non-test file: drop its allowlist entry", name)
		}
	}
}
