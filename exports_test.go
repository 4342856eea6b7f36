package prism5g_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported declarations under internal/ that may
// have no caller outside tests, each with its reason. Keys are
// package-qualified: "pkg.Name" for a function, type, constant or variable,
// "pkg.Type.Method" for a method.
var testOnlyAllowed = map[string]string{
	// Helpers that other packages' tests use.
	"nn.ZeroGrads":         "core's gradient checks clear gradients with it",
	"nn.NumParams":         "core's tests compare the variants' sizes with it",
	"trace.NewSliceStream": "predictors' tests stream windows from a slice with it",
	"ran.Cell.PopLoad":     "pop's tests read a cell's load with it",
	"ran.Engine.PCell":     "sim's tests read the serving PCell with it",
	"ran.Engine.SCells":    "sim's tests read the serving SCells with it",
	"stats.Quantile":       "the one-quantile reference that stats' tests check Quantiles against",

	// Test accessors of production state.
	"obs.Histogram.Quantile": "obs' tests read a histogram's quantiles with it",
	"obs.Journal.Truncated":  "obs' tests read whether the journal hit its byte cap with it",
	"obs.Span.Active":        "obs' tests read whether a span is still open with it",

	// Paper and API surface.
	"core.Prism5G.PredictPerCC":     "the per-carrier decomposition of the paper's Fig 33/34",
	"mobility.Mover.Traveled":       "the mover's odometer, beside Pos",
	"spectrum.MustBand":             "band lookup for statically known names",
	"spectrum.Plan.ChannelsByTech":  "spectrum plan query by technology",
	"spectrum.Plan.ChannelsByRange": "spectrum plan query by frequency range",
	"spectrum.Band.MaxBandwidthMHz": "band capability query",

	// The CSV/JSON ingest API and interface methods.
	"trace.ReadCSV":          "CSV ingest of measurement logs",
	"trace.ReadJSON":         "JSON ingest with validation and repair",
	"grid.ParseError.Unwrap": "errors.Is and errors.As reach the cause through it",
}

// listedPackage is the part of `go list -json` the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// goList runs `go list -deps -json` on patterns in dir.
func goList(t *testing.T, dir string, patterns ...string) []listedPackage {
	t.Helper()
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// sourceImporter type-checks the module's packages from their non-test
// files and reads the standard library from export data.
type sourceImporter struct {
	fset   *token.FileSet
	std    types.Importer
	listed map[string]listedPackage
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	info   *types.Info
}

func (s *sourceImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	lp, ok := s.listed[path]
	if !ok || lp.Standard {
		return s.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	s.files[path] = files
	return pkg, nil
}

// TestInternalExportsHaveCallers fails on any exported function, method,
// type, constant or variable declared at the top level under internal/
// that no non-test code of the module or of perfbench uses. Every
// non-test package is type-checked, so a use counts only if it resolves
// to the declaration itself (through Origin for generics); a method of
// another type with the same name is no caller. A method also counts as
// called when its type, or a pointer to it, implements an interface that
// declares the method (an interface type of the module, a named interface
// of the standard library or error), since a call through that interface
// reaches it, and the methods of a type the root package re-exports by
// alias are public API.
func TestInternalExportsHaveCallers(t *testing.T) {
	s := &sourceImporter{
		fset:   token.NewFileSet(),
		listed: map[string]listedPackage{},
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		info:   &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	s.std = importer.ForCompiler(s.fset, "gc", nil)
	var module []string
	for _, lp := range append(goList(t, ".", "./..."), goList(t, "perfbench", ".")...) {
		if _, dup := s.listed[lp.ImportPath]; !dup && !lp.Standard {
			module = append(module, lp.ImportPath)
		}
		s.listed[lp.ImportPath] = lp
	}
	for _, path := range module {
		if _, err := s.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range s.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}

	// The interfaces a call can reach a method through, by method name:
	// every interface type written in the module, every named interface
	// of the standard library packages it reaches, and error.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				ifaces[iface.Method(i).Name()] = append(ifaces[iface.Method(i).Name()], iface)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for expr, tv := range s.info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			addIface(tv.Type)
		}
	}
	stdSeen := map[*types.Package]bool{}
	var walkStd func(pkg *types.Package)
	walkStd = func(pkg *types.Package) {
		if stdSeen[pkg] || !s.listed[pkg.Path()].Standard {
			return
		}
		stdSeen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walkStd(imp)
		}
	}
	for _, pkg := range s.pkgs {
		for _, imp := range pkg.Imports() {
			walkStd(imp)
		}
	}
	implemented := func(tn *types.TypeName, name string) bool {
		for _, iface := range ifaces[name] {
			if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
				return true
			}
		}
		return false
	}

	// Types the root package re-exports by alias.
	public := map[*types.TypeName]bool{}
	root := s.pkgs["prism5g"].Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[named.Obj()] = true
			}
		}
	}

	seen := map[string]bool{}
	check := func(key string, obj types.Object, called bool) {
		seen[key] = true
		_, allowed := testOnlyAllowed[key]
		switch {
		case allowed && called:
			t.Errorf("%s has a caller now; drop it from testOnlyAllowed", key)
		case !allowed && !called:
			t.Errorf("exported %s (%s) has no caller outside tests: delete it, move it into the test that uses it, or allow it with a reason",
				key, s.fset.Position(obj.Pos()))
		}
	}
	for path, pkg := range s.pkgs {
		if !strings.HasPrefix(path, "prism5g/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			key := pkg.Name() + "." + name
			check(key, obj, used[obj])
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					check(key+"."+m.Name(), m, used[m] || public[tn] || implemented(tn, m.Name()))
				}
			}
		}
	}
	for key := range testOnlyAllowed {
		if !seen[key] {
			t.Errorf("testOnlyAllowed names %s, which is not declared under internal/", key)
		}
	}
}
