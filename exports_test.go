package dcbench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowed lists the exported names kept although no other package
// names them. uarch.ModelVersion is the fidelity contract README and
// ROADMAP point readers at.
var exportAllowed = map[string]bool{
	"dcbench/internal/uarch.ModelVersion": true,
}

// TestEveryExportIsNamedElsewhere keeps the library's API closed: a
// top-level exported func, var or const of an importable package must be
// named by another package — another library package, a command, an
// example, the benchmark module under bench/, or an external _test
// package. A const or var block is one unit: it stays exported while any
// of its exported names is used outside. Unexport what only its own
// package uses.
func TestEveryExportIsNamedElsewhere(t *testing.T) {
	fset := token.NewFileSet()
	type unit struct {
		pkg   string
		names []string
		pos   token.Position
	}
	var units []unit
	used := map[string]bool{} // "importpath.Name" named from another package
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		importPath := path.Join("dcbench", dir)
		if dir == "." {
			importPath = "dcbench"
		}
		// An external test package is a package of its own.
		self := importPath
		if strings.HasSuffix(f.Name.Name, "_test") {
			self += "_test"
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil {
				if ip, ok := imports[x.Name]; ok && ip != self {
					used[ip+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		if strings.HasSuffix(p, "_test.go") || f.Name.Name == "main" {
			return nil
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					units = append(units, unit{importPath, []string{d.Name.Name}, fset.Position(d.Pos())})
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				u := unit{pkg: importPath, pos: fset.Position(d.Pos())}
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.IsExported() {
							u.names = append(u.names, id.Name)
						}
					}
				}
				if len(u.names) > 0 {
					units = append(units, u)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, u := range units {
		named := false
		for _, n := range u.names {
			if used[u.pkg+"."+n] || exportAllowed[u.pkg+"."+n] {
				named = true
			}
		}
		if !named {
			bad = append(bad, u.pos.String()+": "+path.Base(u.pkg)+"."+strings.Join(u.names, ", "))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported but named by no other package: %s", b)
	}
}
