package tornado_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
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
	called, err := facadeNames(".")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for _, path := range root {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && !called[fn.Name.Name] {
				uncalled = append(uncalled, fn.Name.Name)
			}
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("tornado.%s has no caller under cmd/, examples/ or bench/ and no Example", name)
	}
}

// facadeNames returns every N that a caller of the facade names as
// tornado.N: a non-test file under cmd/ or examples/, an Example function,
// or a non-test file of bench/, a module of its own that is read as text.
func facadeNames(root string) (map[string]bool, error) {
	fset := token.NewFileSet()
	names := map[string]bool{}
	tests, err := filepath.Glob(filepath.Join(root, "*_test.go"))
	if err != nil {
		return nil, err
	}
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				noteSelectors(fn.Body, importName(f, "tornado"), names)
			}
		}
	}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			noteSelectors(f, importName(f, "tornado"), names)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	bench, err := filepath.Glob(filepath.Join(root, "bench", "*.go"))
	if err != nil {
		return nil, err
	}
	selector := regexp.MustCompile(`\btornado\.([A-Z]\w*)`)
	for _, path := range bench {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for _, m := range selector.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
	}
	return names, nil
}

// exportAllowList names every export TestEveryInternalExportIsCalled would
// otherwise reject, with the reason it stays. A reason takes one of four
// forms:
//   - "ROADMAP <item>": the open item that gives the name a caller;
//   - "tests: <packages>": the other packages whose tests import it;
//   - "returned by tornado.X" or "input to tornado.X": a facade type,
//     constant or sentinel that callers meet only through a facade call.
//
// Keys are "internal/<pkg>.Name", "internal/<pkg>.Type.Method" or
// "tornado.Name".
var exportAllowList = map[string]string{
	// Bound only by bench/, whose timed paths production no longer takes.
	"internal/archive.Store.ReadStripe": "ROADMAP 3(h)",
	"internal/combin.GrayRank":          "ROADMAP 3(h)",
	"internal/combin.Unrank":            "ROADMAP 3(h)",
	"internal/core.ClosedDataPairs":     "ROADMAP 3(h)",
	"internal/decode.Kernel.Swap":       "ROADMAP 3(h)",
	"internal/sim.ScanRangeCtx":         "ROADMAP 3(h)",

	// Waiting on an open item.
	"internal/chaos.WAN.HealLink":       "ROADMAP 3(d) and 11",
	"internal/chaos.WAN.LimitLink":      "ROADMAP 3(d) and 11",
	"internal/chaos.WAN.LinkLatency":    "ROADMAP 3(d) and 11",
	"internal/repairbw.SingleLossStats": "ROADMAP 5(a)",

	// Oracles other packages' tests compare production against (oracle.go).
	"internal/combin.ForEach":                    "tests: decode, defect",
	"internal/combin.RandomSubset":               "tests: sim",
	"internal/decode.Decoder.Threshold":          "tests: sim",
	"internal/reliability.AnnualLossProbability": "tests: tornado",

	// Fault controls and inspection hooks other packages' tests drive.
	"internal/archive.Store.RepairMeter":          "tests: chaos",
	"internal/chaos.Injector.CorruptStored":       "tests: maid, serve",
	"internal/chaos.Injector.FlapNode":            "tests: archive",
	"internal/chaos.Injector.LoseNode":            "tests: tornado, archive, fedstore, maid",
	"internal/chaos.Injector.LostNodes":           "tests: tornado, archive",
	"internal/chaos.Injector.RestoreNode":         "tests: archive, maid",
	"internal/chaos.NewWAN":                       "tests: tornado, fedstore",
	"internal/chaos.WAN.BrownoutLink":             "tests: fedstore",
	"internal/chaos.WAN.HealAll":                  "tests: fedstore",
	"internal/chaos.WAN.InjectedWANTotals":        "tests: fedstore",
	"internal/chaos.WAN.LoseSite":                 "tests: tornado, fedstore",
	"internal/chaos.WAN.Partition":                "tests: fedstore",
	"internal/chaos.WAN.RestoreSite":              "tests: tornado, fedstore",
	"internal/device.Array.CountState":            "tests: archive",
	"internal/device.Device.Len":                  "tests: tornado, archive",
	"internal/device.Device.Lose":                 "tests: archive, fedstore",
	"internal/device.Device.SetOffline":           "tests: archive",
	"internal/device.Device.SetOnline":            "tests: archive",
	"internal/federation.System.JointRecoverable": "tests: tornado",
	"internal/federation.System.TotalDevices":     "tests: tornado",
	"internal/graph.Graph.Degree":                 "tests: altgraph, core, lec",
	"internal/graph.Graph.Summary":                "tests: altgraph",
	"internal/maid.Shelf.EnsureOn":                "tests: tornado",
	"internal/maid.Shelf.OnlineCount":             "tests: tornado",
	"internal/sim.WorstCaseResult.FailureCountAt": "tests: campaign",

	// Facade types, values and sentinels a caller meets through a facade call.
	"tornado.ArchiveObject":       "returned by tornado.Archive.Stat",
	"tornado.ArchiveStripeLayout": "returned by tornado.Archive.Layout",
	"tornado.ChaosInjector":       "returned by tornado.NewChaosBackend",
	"tornado.Codec":               "returned by tornado.NewCodec",
	"tornado.DecodeResult":        "returned by tornado.NewDecoder",
	"tornado.Defect":              "returned by tornado.ScanDefectsCtx",
	"tornado.Device":              "returned by tornado.NewDevices",
	"tornado.DeviceArray":         "returned by tornado.NewDevices",
	"tornado.DeviceOffline":       "returned by tornado.Device.State",
	"tornado.DeviceOnline":        "returned by tornado.Device.State",
	"tornado.DeviceStandby":       "returned by tornado.Device.State",
	"tornado.DeviceState":         "returned by tornado.Device.State",
	"tornado.ErrDataLoss":         "returned by tornado.Archive.GetCtx",
	"tornado.ErrDegraded":         "returned by tornado.Archive.PutCtx",
	"tornado.ErrExists":           "returned by tornado.Archive.PutCtx",
	"tornado.ErrInjected":         "returned by tornado.ChaosInjector.Read",
	"tornado.ErrNoSite":           "returned by tornado.FederatedStore.GetCtx",
	"tornado.ErrNodeLost":         "returned by tornado.ChaosInjector.Read",
	"tornado.ErrNotFound":         "returned by tornado.Archive.GetCtx",
	"tornado.ErrOverloaded":       "returned by tornado.ServeService.Get",
	"tornado.ErrSiteDown":         "returned by tornado.FederatedStore.RepairSiteCtx",
	"tornado.ErrSiteQuorum":       "returned by tornado.FederatedStore.PutCtx",
	"tornado.ErrSiteUnavailable":  "returned by tornado.SiteClient.Get",
	"tornado.ErrTransient":        "input to tornado.NewArchiveWithBackend",
	"tornado.ErrUnknownTenant":    "returned by tornado.ServeService.Get",
	"tornado.Federation":          "returned by tornado.NewFederation",
	"tornado.FederationDetection": "returned by tornado.Federation.DetectFirstFailureCtx",
	"tornado.GetStats":            "returned by tornado.Archive.GetCtx",
	"tornado.KResult":             "returned by tornado.WorstCaseCtx",
	"tornado.Level":               "returned by tornado.Generate",
	"tornado.LifetimeResult":      "returned by tornado.SimulateLifetimeCtx",
	"tornado.Metrics":             "returned by tornado.Archive.Metrics",
	"tornado.MetricsSnapshot":     "returned by tornado.Metrics.Snapshot",
	"tornado.Params":              "input to tornado.Generate",
	"tornado.ScheduledJob":        "returned by tornado.ScheduleReconstruction",
	"tornado.ScrubReport":         "returned by tornado.Archive.ScrubCtx",
	"tornado.ServeService":        "returned by tornado.NewService",
	"tornado.SiteRepairReport":    "returned by tornado.FederatedStore.RepairSiteCtx",
	"tornado.SiteScrub":           "returned by tornado.FederatedStore.ScrubCtx",
	"tornado.SiteServer":          "returned by tornado.NewSiteServer",
	"tornado.SiteStatus":          "returned by tornado.FederatedStore.Health",
	"tornado.SizeFixed":           "input to tornado.RunWorkload",
	"tornado.SizeUniform":         "input to tornado.RunWorkload",
	"tornado.SoakReport":          "returned by tornado.RunSoakCtx",
	"tornado.StewardReport":       "returned by tornado.FederatedStore.PassCtx",
	"tornado.StorageBackend":      "input to tornado.NewArchiveWithBackend",
	"tornado.StreamOption":        "returned by tornado.WithStreamParallelism",
	"tornado.StripeHealth":        "returned by tornado.Archive.ScrubCtx",
	"tornado.WorkloadResult":      "returned by tornado.RunWorkload",
}

// TestEveryInternalExportIsCalled is TestEveryInternalPackageIsImported one
// level down: every exported name declared in a non-test internal/ file has a
// production reference, or an entry in exportAllowList that says why not.
//   - A package-level func, type, const or var P.N is referenced when another
//     non-test file names it as x.N (x being that file's import name for P),
//     or when P's own non-test files use N outside its declaration.
//   - A method T.M is referenced when some non-test file selects .M on
//     anything but an import name. A call through an interface counts, so
//     the rule errs towards keeping.
//   - Each exported alias, const and var of package tornado is named as
//     tornado.N under cmd/ or examples/, in bench/ (read as text), or in an
//     Example.
//
// bench/ is a module of its own and calls nothing in internal/ production.
// An allow-list entry that names nothing declared, or a name that has since
// gained a production reference, fails the test too.
func TestEveryInternalExportIsCalled(t *testing.T) {
	problems, err := scanExports(".", exportAllowList)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// scanExports parses the module at root and returns one message per export
// with neither a production reference nor an allow-list entry, and one per
// allow-list entry that is unknown, referenced or has a malformed reason.
func scanExports(root string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	decls := map[string]token.Position{}        // key (see exportAllowList) -> declaration
	methods := map[string]bool{}                // keys that name a method
	used := map[string]bool{}                   // package-level keys with a production reference
	selected := map[string]bool{}               // every M some non-test file selects as x.M, x no import name
	rootFuncs := map[string]bool{}              // exported functions of package tornado
	aliases := map[string]string{}              // facade alias -> key of the internal type it names
	testImports := map[string]map[string]bool{} // package dir -> import paths of its tests
	testSelects := map[string]map[string]bool{} // package dir -> every M its tests select as x.M
	type source struct {
		dir string // package directory relative to root, "." for the facade
		f   *ast.File
	}
	var prod []source
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if !strings.HasSuffix(rel, "_test.go") {
			prod = append(prod, source{dir, f})
			return nil
		}
		if testImports[dir] == nil {
			testImports[dir], testSelects[dir] = map[string]bool{}, map[string]bool{}
		}
		for _, spec := range f.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			testImports[dir][imp] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				testSelects[dir][sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	facade, err := facadeNames(root)
	if err != nil {
		return nil, err
	}

	for _, s := range prod {
		internal := strings.HasPrefix(s.dir, "internal/")
		if internal || s.dir == "." {
			prefix := s.dir + "."
			if s.dir == "." {
				prefix = "tornado."
			}
			for _, decl := range s.f.Decls {
				for key, pos := range exportedDecls(decl, internal) {
					decls[prefix+key] = fset.Position(pos)
					if _, ok := decl.(*ast.FuncDecl); ok && strings.Contains(key, ".") {
						methods[prefix+key] = true
					}
				}
			}
		}
		imports := map[string]string{} // import name -> package dir ("" outside the module)
		for _, spec := range s.f.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			name := pathpkg.Base(imp)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name], _ = strings.CutPrefix(imp, "tornado/")
		}
		if s.dir == "." {
			noteFacade(s.f, imports, rootFuncs, aliases)
		}
		ast.Inspect(s.f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if dir, imported := imports[id.Name]; imported {
					used[dir+"."+sel.Sel.Name] = true
					return true
				}
			}
			selected[sel.Sel.Name] = true
			return true
		})
		if internal {
			for _, decl := range s.f.Decls {
				noteOwnUses(decl, s.dir, used)
			}
		}
	}

	referenced := func(key string) bool {
		switch {
		case strings.HasPrefix(key, "tornado."):
			return facade[strings.TrimPrefix(key, "tornado.")]
		case methods[key]:
			return selected[key[strings.LastIndexByte(key, '.')+1:]]
		}
		return used[key]
	}
	var problems []string
	keys := make([]string, 0, len(decls))
	for key := range decls {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		pos := decls[key]
		_, listed := allow[key]
		switch {
		case referenced(key) && listed:
			problems = append(problems, fmt.Sprintf("%s (%s:%d) has a production reference; drop its allow-list entry", key, pos.Filename, pos.Line))
		case !referenced(key) && !listed:
			problems = append(problems, fmt.Sprintf("%s (%s:%d) has no production reference; delete it, move it into a _test.go file, or allow-list it", key, pos.Filename, pos.Line))
		}
	}
	reason := regexp.MustCompile(`^(?:ROADMAP \d+(?:\([a-z]\))?(?:(?:, | and )\d+(?:\([a-z]\))?)*|tests: ([\w/]+(?:, [\w/]+)*)|(?:returned by|input to) tornado\.(\w+)(?:\.(\w+))?)$`)
	keys = keys[:0]
	for key := range allow {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		m := reason.FindStringSubmatch(allow[key])
		switch {
		case decls[key].Filename == "":
			problems = append(problems, fmt.Sprintf("allow-list entry %s names nothing declared", key))
		case m == nil:
			problems = append(problems, fmt.Sprintf("allow-list entry %s: reason %q is none of ROADMAP <item>, tests: <packages>, returned by tornado.X, input to tornado.X", key, allow[key]))
		case m[3] == "" && m[2] != "" && !rootFuncs[m[2]]:
			problems = append(problems, fmt.Sprintf("allow-list entry %s: tornado.%s is no facade function", key, m[2]))
		case m[3] != "" && decls[aliases[m[2]]+"."+m[3]].Filename == "":
			problems = append(problems, fmt.Sprintf("allow-list entry %s: tornado.%s has no method %s", key, m[2], m[3]))
		case m[1] != "":
			pkg := "tornado/" + key[:strings.IndexByte(key, '.')]
			for _, dir := range strings.Split(m[1], ", ") {
				if dir == "tornado" {
					dir = "."
				} else if !strings.Contains(dir, "/") {
					dir = "internal/" + dir
				}
				switch {
				case methods[key] && !testSelects[dir][key[strings.LastIndexByte(key, '.')+1:]]:
					problems = append(problems, fmt.Sprintf("allow-list entry %s: no test in %s calls it", key, dir))
				case !methods[key] && !testImports[dir][pkg]:
					problems = append(problems, fmt.Sprintf("allow-list entry %s: no test in %s imports %s", key, dir, pkg))
				}
			}
		}
	}
	return problems, nil
}

// noteFacade records the facade file f's exported functions in funcs, and
// for each exported type alias of an internal type, the key of that type in
// aliases. imports maps f's import names to package directories.
func noteFacade(f *ast.File, imports map[string]string, funcs map[string]bool, aliases map[string]string) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				funcs[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Assign.IsValid() {
					continue
				}
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
						aliases[ts.Name.Name] = imports[id.Name] + "." + sel.Sel.Name
					}
				}
			}
		}
	}
}

// importName is the name f imports path as, or "" when it does not.
func importName(f *ast.File, path string) string {
	for _, spec := range f.Imports {
		if imp, _ := strconv.Unquote(spec.Path.Value); imp == path {
			if spec.Name != nil {
				return spec.Name.Name
			}
			return pathpkg.Base(path)
		}
	}
	return ""
}

// noteSelectors records every N selected as name.N under n.
func noteSelectors(n ast.Node, name string, into map[string]bool) {
	if name == "" || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
				into[sel.Sel.Name] = true
			}
		}
		return true
	})
}

// exportedDecls returns the exported names decl declares, keyed "N" or, for
// a method, "T.M", with their positions. Outside internal/ (the facade) only
// aliases, consts and vars count: its functions have their own guard.
func exportedDecls(decl ast.Decl, internal bool) map[string]token.Pos {
	out := map[string]token.Pos{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !internal || !d.Name.IsExported() {
			break
		}
		if d.Recv == nil {
			out[d.Name.Name] = d.Name.Pos()
		} else if recv := recvType(d.Recv.List[0].Type); recv != "" {
			out[recv+"."+d.Name.Name] = d.Name.Pos()
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && (internal || s.Assign.IsValid()) {
					out[s.Name.Name] = s.Name.Pos()
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out[n.Name] = n.Pos()
					}
				}
			}
		}
	}
	return out
}

// recvType is the type name of a method receiver: T for T, *T, T[K] or *T[K].
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// noteOwnUses marks dir.N used for every identifier N that the top-level decl
// names outside the declaration of N itself: not the declared names, not
// a method's receiver, not a field name or the right side of a selector, and
// not inside N's own body.
func noteOwnUses(decl ast.Decl, dir string, used map[string]bool) {
	var walk func(n ast.Node, self map[string]bool)
	walk = func(n ast.Node, self map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.IsExported() && !self[n.Name] {
					used[dir+"."+n.Name] = true
				}
			case *ast.SelectorExpr:
				walk(n.X, self)
				return false
			case *ast.Field:
				walk(n.Type, self)
				return false
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := map[string]bool{}
		if d.Recv == nil {
			self[d.Name.Name] = true
		}
		if d.Type != nil {
			walk(d.Type, self)
		}
		if d.Body != nil {
			walk(d.Body, self)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self := map[string]bool{s.Name.Name: true}
				if s.TypeParams != nil {
					walk(s.TypeParams, self)
				}
				walk(s.Type, self)
			case *ast.ValueSpec:
				self := map[string]bool{}
				for _, n := range s.Names {
					self[n.Name] = true
				}
				if s.Type != nil {
					walk(s.Type, self)
				}
				for _, v := range s.Values {
					walk(v, self)
				}
			}
		}
	}
}
