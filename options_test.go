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
// nothing turns: every exported field of exp.Scenario and kv.Options must
// have a setter in the non-test Go of the module or of benchmark/, outside
// the normalize and WithDefaults functions that fill the defaults. A
// setter is a keyed (or positional) struct literal, an assignment or
// increment, or an address taken, matched by the field's types.Var, not
// by its name. A field that only tests set has one value in every real
// run and belongs in a constant.
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
			if fn, ok := decl.(*ast.FuncDecl); ok && (fn.Name.Name == "normalize" || fn.Name.Name == "WithDefaults") {
				continue
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
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(m.info.Uses[key])
							}
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelector(lhs)
					}
				case *ast.IncDecStmt:
					markSelector(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
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
