package tornado_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported: every internal package is reached by
// some non-test file outside itself. A package only its own tests import is
// code production never runs; delete it instead of keeping it compiling.
// bench/ is a module of its own and is not scanned.
func TestEveryInternalPackageIsImported(t *testing.T) {
	internal := map[string]bool{} // import path of every internal package
	imported := map[string]bool{} // internal import paths some other package imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := "tornado/" + filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "tornado/internal/") {
			internal[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if imp != dir {
				imported[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for pkg := range internal {
		if !imported[pkg] {
			orphans = append(orphans, strings.TrimPrefix(pkg, "tornado/"))
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s has no importer outside its own tests", pkg)
	}
}

// TestEveryFacadeFunctionIsCalled is the facade's twin of
// TestEveryInternalPackageIsImported: every exported function of package
// tornado is named as tornado.X by a non-test file under cmd/, examples/ or
// bench/, or by an Example function. An entry point no program and no
// example runs is surface nobody exercises; delete it instead of keeping it
// exported. bench/ is a module of its own and is read as text.
func TestEveryFacadeFunctionIsCalled(t *testing.T) {
	fset := token.NewFileSet()
	exported := map[string]bool{} // every exported root function
	called := map[string]bool{}   // every X some caller names as tornado.X
	// noteCalls records the tornado.X selectors under n, where name is the
	// identifier f imports package tornado as ("" when it does not).
	noteCalls := func(n ast.Node, name string) {
		if name == "" {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	tornadoName := func(f *ast.File) string {
		for _, spec := range f.Imports {
			if spec.Path.Value == `"tornado"` {
				if spec.Name != nil {
					return spec.Name.Name
				}
				return "tornado"
			}
		}
		return ""
	}

	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range root {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			switch {
			case !strings.HasSuffix(path, "_test.go"):
				if fn.Name.IsExported() {
					exported[fn.Name.Name] = true
				}
			case strings.HasPrefix(fn.Name.Name, "Example"):
				noteCalls(fn.Body, tornadoName(f))
			}
		}
	}

	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			noteCalls(f, tornadoName(f))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	bench, err := filepath.Glob(filepath.Join("bench", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	selector := regexp.MustCompile(`\btornado\.([A-Z]\w*)`)
	for _, path := range bench {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range selector.FindAllSubmatch(src, -1) {
			called[string(m[1])] = true
		}
	}

	var uncalled []string
	for name := range exported {
		if !called[name] {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("tornado.%s has no caller under cmd/, examples/ or bench/ and no Example", name)
	}
}
