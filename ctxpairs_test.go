package tornado_test

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

// TestCtxPairsOnlyGoDown: no package, the facade included, carries an
// exported Foo/FooCtx pair (a function or method and its context-less twin).
// Callers pass a context; one with nothing to cancel passes
// context.Background().
func TestCtxPairsOnlyGoDown(t *testing.T) {
	dirs := []string{"."}
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			dirs = append(dirs, dir)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{} // "Recv.Name" of every exported func and method
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					recv := ""
					if fn.Recv != nil {
						typ := fn.Recv.List[0].Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if id, ok := typ.(*ast.Ident); ok {
							recv = id.Name
						}
					}
					names[recv+"."+fn.Name.Name] = true
				}
			}
		}
		var pairs []string
		for name := range names {
			if names[name+"Ctx"] {
				pairs = append(pairs, strings.TrimPrefix(name, "."))
			}
		}
		if len(pairs) > 0 {
			sort.Strings(pairs)
			t.Errorf("%s has Foo/FooCtx pairs %v: take a context instead of adding a twin", filepath.ToSlash(dir), pairs)
		}
	}
}
