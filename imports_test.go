package tornado_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
