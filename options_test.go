package irn_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// optionsWithoutSetters are the run options the guard lets stand without
// a setter, each with the reason it stays.
var optionsWithoutSetters = map[string]string{
	"kv.Options.Clients":   "benchmark/probe.go reads it, so only a change to the benchmark can fold it",
	"kv.Options.Followers": "benchmark/probe.go reads it, so only a change to the benchmark can fold it",
}

// TestRunOptionsHaveCallers keeps the run configuration free of knobs
// nothing turns: every exported field of exp.Scenario, kv.Options, the
// core and rocev2 transport Params and the DCQCN and Timely configs must
// have a setter in the non-test Go of the module or of benchmark/,
// outside the normalize and WithDefaults functions that fill the
// defaults. A setter is a keyed (or positional) struct literal, an
// assignment or increment, or an address taken, matched by the field's
// types.Var, not by its name. Inside a Default* constructor a field
// counts as set only when its value reads one of the constructor's
// parameters: a literal there is a default no caller varies. A field that
// only tests set has one value in every real run and belongs in a
// constant.
func TestRunOptionsHaveCallers(t *testing.T) {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(data), "\n")
	module := strings.TrimSpace(strings.TrimPrefix(first, "module"))

	fset := token.NewFileSet()
	m := &moduleImporter{
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs: map[string]*types.Package{},
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			return nil // no non-test Go files here
		}
		_, err = m.ImportFrom(filepath.ToSlash(filepath.Join(module, path)), path, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	set := map[*types.Var]bool{}
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			set[v] = true
		}
	}
	markSelector := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := m.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				mark(s.Obj())
			}
		}
	}
	for _, f := range m.files {
		for _, decl := range f.Decls {
			// params are a Default* constructor's parameters: there a
			// value sets a field only if it reads one of them, and an
			// increment or an address taken never does.
			var params map[types.Object]bool
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Name.Name == "normalize" || fn.Name.Name == "WithDefaults" {
					continue
				}
				if strings.HasPrefix(fn.Name.Name, "Default") {
					params = map[types.Object]bool{}
					for _, field := range fn.Type.Params.List {
						for _, name := range field.Names {
							params[m.info.Defs[name]] = true
						}
					}
				}
			}
			sets := func(value ast.Expr) bool {
				if params == nil {
					return true
				}
				reads := false
				ast.Inspect(value, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && params[m.info.Uses[id]] {
						reads = true
					}
					return !reads
				})
				return reads
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := m.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && sets(kv.Value) {
								mark(m.info.Uses[key])
							}
						} else if sets(elt) {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						value := n.Rhs[0]
						if len(n.Rhs) == len(n.Lhs) {
							value = n.Rhs[i]
						}
						if sets(value) {
							markSelector(lhs)
						}
					}
				case *ast.IncDecStmt:
					if params == nil {
						markSelector(n.X)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND && params == nil {
						markSelector(n.X)
					}
				}
				return true
			})
		}
	}

	for _, o := range []struct{ pkg, short, typ string }{
		{module + "/internal/exp", "exp", "Scenario"},
		{module + "/internal/kv", "kv", "Options"},
		{module + "/internal/core", "core", "Params"},
		{module + "/internal/rocev2", "rocev2", "Params"},
		{module + "/internal/cc", "cc", "DCQCNConfig"},
		{module + "/internal/cc", "cc", "TimelyConfig"},
	} {
		st := m.pkgs[o.pkg].Scope().Lookup(o.typ).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			name := o.short + "." + o.typ + "." + f.Name()
			_, allowed := optionsWithoutSetters[name]
			switch {
			case !set[f] && !allowed:
				t.Errorf("%s: nothing outside the tests sets it; make it a constant at its default", name)
			case set[f] && allowed:
				t.Errorf("%s: has a setter now; drop it from optionsWithoutSetters", name)
			}
		}
	}
}

// moduleImporter type-checks this module's packages (benchmark/'s
// included) from their non-test source, recording every use and
// selection in one types.Info, so a field has one types.Var however many
// packages name it. Other packages come from std.
type moduleImporter struct {
	module string
	fset   *token.FileSet
	std    types.ImporterFrom
	info   *types.Info
	pkgs   map[string]*types.Package
	files  []*ast.File // every package's, in check order
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, ".", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, m.module)
	if !ok || rel != "" && rel[0] != '/' {
		return m.std.ImportFrom(path, dir, mode)
	}
	if pkg := m.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	srcDir := "." + rel
	bp, err := build.ImportDir(srcDir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(srcDir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files = pkg, append(m.files, files...)
	return pkg, nil
}
