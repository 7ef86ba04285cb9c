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

// ctxPairCeiling pins, per internal package, how many exported Foo/FooCtx
// pairs (a function or method and its context-less twin) it may carry —
// ROADMAP 8(ii): internal callers pass a context, so the twins only go away.
// A package not listed carries none. Lower a number when you delete a twin;
// never raise one.
var ctxPairCeiling = map[string]int{
	"internal/archive":    3,
	"internal/adjust":     2,
	"internal/federation": 1,
	"internal/chaos/soak": 1,
}

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
		if max := ctxPairCeiling[dir]; len(got) > max {
			t.Errorf("%s has %d Foo/FooCtx pairs %v, pinned at %d: take a context instead of adding a twin",
				dir, len(got), got, max)
		}
	}
	for dir, max := range ctxPairCeiling {
		if len(pairs[dir]) < max {
			t.Errorf("%s is down to %d Foo/FooCtx pairs: lower its ceiling from %d", dir, len(pairs[dir]), max)
		}
	}
}
