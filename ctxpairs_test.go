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

// TestCtxPairsOnlyGoDown: no internal package carries an exported Foo/FooCtx
// pair (a function or method and its context-less twin). Internal callers
// pass a context; only the facade keeps such pairs.
func TestCtxPairsOnlyGoDown(t *testing.T) {
	pairs := map[string][]string{}
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			return err
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
		for name := range names {
			if names[name+"Ctx"] {
				pairs[filepath.ToSlash(dir)] = append(pairs[filepath.ToSlash(dir)], strings.TrimPrefix(name, "."))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, got := range pairs {
		sort.Strings(got)
		t.Errorf("%s has Foo/FooCtx pairs %v: take a context instead of adding a twin", dir, got)
	}
}
