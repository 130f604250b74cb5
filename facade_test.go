package fncc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// TestFacadeExportsAreUsed keeps fncc.go from regrowing: every identifier it
// exports is referenced by an example, the runnable documentation or a root
// test — the facade's users in this repository. A re-export nobody calls is
// not an API, it is a second name to keep in sync. The users are found by
// glob, so adding or deleting a root test file cannot leave the list stale.
func TestFacadeExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	used := map[string]bool{}
	for _, path := range append(tests, examples...) {
		f := parse(path)
		if f.Name.Name == "fncc" {
			// In-package: what the file leaves unresolved is what it takes
			// from the package's other files (and the universe).
			for _, id := range f.Unresolved {
				used[id.Name] = true
			}
			continue
		}
		facade := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro" {
				facade = "fncc"
				if imp.Name != nil {
					facade = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == facade && x.Obj == nil {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	exported := 0
	for name, obj := range parse("fncc.go").Scope.Objects {
		if !ast.IsExported(name) || obj.Kind == ast.Bad {
			continue
		}
		exported++
		if !used[name] {
			unused = append(unused, name)
		}
	}
	if exported == 0 {
		t.Fatal("found no exports in fncc.go: the check checks nothing")
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d of fncc.go's %d exports are used by no example or root test — delete them: %v",
			len(unused), exported, unused)
	}
}
