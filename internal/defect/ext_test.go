// Exhaustive kernel-vs-reference cross-checks on real Tornado graphs. The
// external test package breaks the import cycle: core and the tornado
// facade both import defect.
package defect_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	tornado "tornado"
	"tornado/internal/core"
	"tornado/internal/defect"
)

// TestPrecompiledGraphsKernelMatchesReference exhaustively cross-checks
// the bitmask kernel against the map-based oracle on the three shipped
// certified 96-node graphs, on every cascade level.
func TestPrecompiledGraphsKernelMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 96-node scan")
	}
	for _, name := range tornado.PrecompiledNames() {
		g, err := tornado.LoadPrecompiled(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		maxSize := 4
		if got, want := defect.MustScanData(t, g, maxSize), defect.ReferenceScan(g, maxSize); !reflect.DeepEqual(got, want) {
			t.Errorf("%s data level: kernel = %v, reference = %v", name, got, want)
		}
		for li := range g.Levels {
			want := defect.ReferenceScanLevel(g, li, 3)
			got, err := defect.ScanLevelCtx(t.Context(), g, li, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s level %d: kernel = %v, reference = %v", name, li, got, want)
			}
		}
	}
}

// TestSmallGeneratedGraphsClosedFourSets scans unscreened 32-node
// generated graphs — small enough for exhaustive size-4 search, raw
// enough that closed sets actually occur — and cross-checks kernel vs
// reference plus worker-count independence.
func TestSmallGeneratedGraphsClosedFourSets(t *testing.T) {
	p := core.DefaultParams()
	p.TotalNodes = 32
	p.MinFinalLeft = 4
	foundAny := false
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 42))
		g, err := core.GenerateUnscreened(p, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := defect.ReferenceScan(g, 4)
		if len(want) > 0 {
			foundAny = true
		}
		if got := defect.MustScanData(t, g, 4); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: kernel = %v, reference = %v", seed, got, want)
		}
		for li := range g.Levels {
			want := defect.ReferenceScanLevel(g, li, 4)
			got, err := defect.ScanLevelCtx(t.Context(), g, li, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d level %d: kernel = %v, reference = %v", seed, li, got, want)
			}
		}
	}
	if !foundAny {
		t.Log("no unscreened 32-node graph had a data-level closed 4-set; cross-check still exhaustive")
	}
}

// TestFacadeScanAllDefects covers the new facade surface on a certified
// graph: data-level scan is clean by certification, and the all-level
// scan agrees with the per-level reference.
func TestFacadeScanAllDefects(t *testing.T) {
	g, err := tornado.LoadPrecompiled("tornado96-1")
	if err != nil {
		t.Fatal(err)
	}
	if fs := tornado.ScanDefects(g, 3); len(fs) != 0 {
		t.Errorf("certified graph has data-level defects: %v", fs)
	}
	all, err := tornado.ScanAllDefects(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want []tornado.Defect
	scanned := map[[2]int]bool{}
	for li, lv := range g.Levels {
		key := [2]int{lv.LeftFirst, lv.LeftCount}
		if scanned[key] {
			continue
		}
		scanned[key] = true
		want = append(want, defect.ReferenceScanLevel(g, li, 2)...)
	}
	if !reflect.DeepEqual(all, want) {
		t.Errorf("ScanAllDefects = %v, reference = %v", all, want)
	}
}
