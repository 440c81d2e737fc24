package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists exported functions and methods under internal/ and
// client/ that no non-test code uses, keyed "pkg.Func" or "pkg.Type.Method",
// each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"core.Session.EstimateAll":            "the naive reference scorer, the oracle the differential tests hold the pruned scan against",
	"netserve.Server.HoldTokenForTest":    "test seam: tests in client and netserve saturate the admission gate without racing real traffic",
	"netserve.Server.ReleaseTokenForTest": "the other half of HoldTokenForTest",
}

// unsetOptionAllowed lists exported fields of option structs under
// internal/, client/ or cmd/ that no non-test code sets, keyed
// "pkg.Struct.Field", each with the reason it stays.
var unsetOptionAllowed = map[string]string{
	"experiment.CellOptions.ReferenceScorer": "switches the grid to the naive reference scorer, which the differential tests hold every grid number equal against",
	"membership.Config.Now":                  "test seam: membership's tests and fuzzer run leases on a synthetic clock",
	"overload.Config.Clock":                  "test seam: the controller's tests step its control loop on a synthetic clock",
}

// checkedPkg is one non-test package, type-checked from source.
type checkedPkg struct {
	dir   string // slash-separated, relative to the module root; bench/... for the benchmark module
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// listedPkg is the part of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goList runs `go list -export -deps` over every package of the module
// rooted at dir and returns them dependencies first.
func goList(t *testing.T, dir string) []listedPkg {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// loadModule type-checks the non-test source of every package of this
// module and of the nested bench/ module, in dependency order, so that a
// use anywhere resolves to the very object it names. The standard library
// comes from the export data `go list -export` reports.
func loadModule(t *testing.T) (*token.FileSet, []*checkedPkg) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	exports := make(map[string]string)
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*checkedPkg
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		for _, lp := range goList(t, dir) {
			if lp.Standard {
				exports[lp.ImportPath] = lp.Export
				continue
			}
			if checked[lp.ImportPath] != nil {
				continue // a module package bench/ imports, checked already
			}
			p := &checkedPkg{info: &types.Info{
				Defs:  make(map[*ast.Ident]types.Object),
				Uses:  make(map[*ast.Ident]types.Object),
				Types: make(map[ast.Expr]types.TypeAndValue),
			}}
			rel, err := filepath.Rel(root, lp.Dir)
			if err != nil {
				t.Fatal(err)
			}
			p.dir = filepath.ToSlash(rel)
			// Listing the directory here, not only in go list, lets go
			// test's result cache see a file added to the package.
			if _, err := os.ReadDir(lp.Dir); err != nil {
				t.Fatal(err)
			}
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				p.files = append(p.files, f)
			}
			conf := types.Config{Importer: imp}
			if p.types, err = conf.Check(lp.ImportPath, fset, p.files, p.info); err != nil {
				t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = p.types
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 || !inScope(pkgs[len(pkgs)-1].dir, "bench") {
		t.Fatal("no bench/ package loaded: the loader is likely broken")
	}
	return fset, pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// inScope reports whether dir is under one of the given top-level
// directories.
func inScope(dir string, tops ...string) bool {
	for _, top := range tops {
		if dir == top || strings.HasPrefix(dir, top+"/") {
			return true
		}
	}
	return false
}

// qualified names a function, method or field as the allowlists key it:
// pkg.Name, or pkg.Type.Name when recv, the receiver or the struct holding
// the field, is non-nil.
func qualified(obj types.Object, recv types.Type) string {
	if recv == nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return obj.Pkg().Name() + "." + recv.(*types.Named).Obj().Name() + "." + obj.Name()
}

// checkAllowlist fails on an entry with no reason or that names nothing
// the check inspects.
func checkAllowlist(t *testing.T, allow map[string]string, names map[string]bool) {
	t.Helper()
	for name, reason := range allow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlisted %s states no reason", name)
		}
		if !names[name] {
			t.Errorf("allowlisted %s names nothing the check inspects: drop its entry", name)
		}
	}
}

// TestNoTestOnlyExports is the orphan-package check one level down: every
// exported function or method under internal/ or client/ must be used by
// non-test code of the module or of bench/. An export only tests reach is
// a mechanism nothing runs. The check is by type, not by name: a use is a
// reference that resolves to that exact function or method, so a method
// stays flagged however many other identifiers share its name. A method is
// also used when its receiver implements an interface declaring it, whether
// the module declares the interface or a standard-library package the module
// imports does (fmt.Stringer, http.Handler, error), because calls through
// the interface resolve to the interface's method.
func TestNoTestOnlyExports(t *testing.T) {
	fset, pkgs := loadModule(t)
	var decls []*types.Func // exported functions and methods in scope
	for _, p := range pkgs {
		if !inScope(p.dir, "internal", "client") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls = append(decls, p.info.Defs[fd.Name].(*types.Func))
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found; the loader is likely broken")
	}
	// Interfaces a call may go through: every named interface the module
	// declares, every exported one of a standard-library package it
	// imports, and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	addIfaces := func(pkg *types.Package, exportedOnly bool) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && (obj.Exported() || !exportedOnly) {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, p := range pkgs {
		addIfaces(p.types, false)
	}
	for _, p := range pkgs {
		for _, imp := range p.types.Imports() {
			addIfaces(imp, true)
		}
	}
	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[obj] = true
		}
	}
	viaInterface := func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return false
		}
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(recv), it) {
					return true
				}
			}
		}
		return false
	}
	names := make(map[string]bool)
	var hits []string
	for _, fn := range decls {
		var recv types.Type
		if r := fn.Type().(*types.Signature).Recv(); r != nil {
			recv = r.Type()
		}
		name := qualified(fn, recv)
		names[name] = true
		switch {
		case used[fn] || viaInterface(fn):
			if testOnlyAllowed[name] != "" {
				t.Errorf("allowlisted %s is used by non-test code: drop its allowlist entry", name)
			}
		case testOnlyAllowed[name] == "":
			hits = append(hits, fmt.Sprintf("%s: %s", fset.Position(fn.Pos()), name))
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Errorf("%s is used by no non-test code: delete it or allowlist it with a reason", h)
	}
	checkAllowlist(t, testOnlyAllowed, names)
}

// isOptionStruct reports whether a type of this name is an option struct
// the census counts.
func isOptionStruct(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")
}

// TestOptionsCensus fails on any exported field of an option struct (one
// named Options, Config, or ending in either) under internal/, client/ or
// cmd/ that no non-test code sets and bench/ does not name: a knob nobody
// turns is a configuration nothing tests, and its default is the only
// behaviour. A field is set by a composite-literal key, an unkeyed
// composite literal, an assignment or increment, or having its address
// taken (flag.IntVar(&cfg.N, ...)). It logs the number of settable fields
// and of command-line flags, the option count CI reports beside the lines.
func TestOptionsCensus(t *testing.T) {
	fset, pkgs := loadModule(t)
	fields := make(map[*types.Var]string) // field → pkg.Struct.Field
	for _, p := range pkgs {
		if !inScope(p.dir, "internal", "client", "cmd") {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !isOptionStruct(name) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[f] = qualified(f, tn.Type())
					}
				}
			}
		}
	}
	set := make(map[*types.Var]bool)
	flags := 0
	for _, p := range pkgs {
		bench := inScope(p.dir, "bench")
		mark := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if v, ok := p.info.Uses[x.Sel].(*types.Var); ok {
						set[v] = true
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				default:
					return
				}
			}
		}
		if bench {
			for _, obj := range p.info.Uses {
				if v, ok := obj.(*types.Var); ok {
					set[v] = true
				}
			}
			continue
		}
		defaults := make(map[ast.Stmt]bool)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					// if o.F == 0 { o.F = 4 } fills in a default: it
					// sets nothing a caller chose.
					read := make(map[types.Object]bool)
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						if sel, ok := c.(*ast.SelectorExpr); ok {
							read[p.info.Uses[sel.Sel]] = true
						}
						return true
					})
					for _, st := range n.Body.List {
						if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
							if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok && read[p.info.Uses[sel.Sel]] {
								defaults[as] = true
							}
						}
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := p.info.Uses[id].(*types.Var); ok {
									set[v] = true
								}
							}
						}
					}
					if st, ok := p.info.TypeOf(n).Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := 0; i < st.NumFields(); i++ {
								set[st.Field(i)] = true
							}
						}
					}
				case *ast.AssignStmt:
					if defaults[n] {
						break
					}
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						mark(n.Key)
						mark(n.Value)
					}
				case *ast.CallExpr:
					if inScope(p.dir, "cmd") && isFlagDefinition(p.info, n) {
						flags++
					}
				}
				return true
			})
		}
	}
	names := make(map[string]bool)
	var hits []string
	for f, name := range fields {
		names[name] = true
		switch {
		case set[f]:
			if unsetOptionAllowed[name] != "" {
				t.Errorf("allowlisted %s is set by non-test code: drop its allowlist entry", name)
			}
		case unsetOptionAllowed[name] == "":
			hits = append(hits, fmt.Sprintf("%s: %s", fset.Position(f.Pos()), name))
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Errorf("%s is set by no non-test code: delete it or allowlist it with a reason", h)
	}
	checkAllowlist(t, unsetOptionAllowed, names)
	t.Logf("options census: %d settable option fields, %d command-line flags", len(fields), flags)
}

// isFlagDefinition reports whether call defines a command-line flag: a
// call of a flag package function or FlagSet method whose name is a flag
// kind (Int, IntVar, Duration, Func, ...), not Parse, Args or the like.
func isFlagDefinition(info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.Ident:
		id = fn
	default:
		return false
	}
	obj, ok := info.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "flag" {
		return false
	}
	switch strings.TrimSuffix(obj.Name(), "Var") {
	case "Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64", "Func", "Text", "", "BoolFunc":
		return true
	}
	return false
}
