// Exhaustive search-vs-reference cross-checks on real Tornado graphs. The
// external test package breaks the import cycle: core and the tornado
// facade both import defect.
package defect_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	tornado "tornado"
	"tornado/internal/core"
	"tornado/internal/defect"
	"tornado/internal/graph"
)

// TestPrecompiledGraphsKernelMatchesReference exhaustively cross-checks
// the closed-set search against the map-based oracle on the three shipped
// certified 96-node graphs, on every cascade level and at several worker
// counts.
func TestPrecompiledGraphsKernelMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 96-node scan")
	}
	for _, name := range []string{"tornado96-1", "tornado96-2", "tornado96-3"} {
		g, err := tornado.LoadPrecompiled(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		maxSize := 4
		if got, want := defect.MustScanData(t, g, maxSize), defect.ReferenceScan(g, maxSize); !reflect.DeepEqual(got, want) {
			t.Errorf("%s data level: scan = %v, reference = %v", name, got, want)
		}
		for li := range g.Levels {
			want := defect.ReferenceScanLevel(g, li, 3)
			for _, workers := range []int{0, 1, 4} {
				got, err := defect.ScanLevelCtx(t.Context(), g, li, 3, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s level %d workers %d: scan = %v, reference = %v", name, li, workers, got, want)
				}
			}
		}
	}
}

// TestSmallGeneratedGraphsClosedFourSets scans unscreened 32-node
// generated graphs — small enough for exhaustive size-4 search, raw
// enough that closed sets actually occur — and cross-checks the search
// against the reference on every level.
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
			t.Errorf("seed %d: scan = %v, reference = %v", seed, got, want)
		}
		for li := range g.Levels {
			want := defect.ReferenceScanLevel(g, li, 4)
			got, err := defect.ScanLevelCtx(t.Context(), g, li, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d level %d: scan = %v, reference = %v", seed, li, got, want)
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
	if fs, err := tornado.ScanDefectsCtx(context.Background(), g, 3, 0); err != nil || len(fs) != 0 {
		t.Errorf("certified graph has data-level defects: %v (%v)", fs, err)
	}
	all, err := tornado.ScanAllDefectsCtx(context.Background(), g, 2, 0)
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
		t.Errorf("ScanAllDefectsCtx = %v, reference = %v", all, want)
	}
}

// TestFacadeScanAllDefectsArchival runs the all-level screen on an
// archival-scale graph (n=10,000, seed 2006), where the data level alone
// holds C(5000, 3) ≈ 2.1e10 triples: the search must finish, and the data
// level must be clean, since generation screens it to the same size.
func TestFacadeScanAllDefectsArchival(t *testing.T) {
	p := tornado.DefaultParams()
	p.TotalNodes = 10000
	g, _, err := tornado.Generate(p, 2006)
	if err != nil {
		t.Fatal(err)
	}
	all, err := tornado.ScanAllDefectsCtx(context.Background(), g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range all {
		if f.Level == 0 {
			t.Errorf("screened graph has a data-level defect: %v", f)
		}
	}
	t.Logf("%d upper-level findings", len(all))
}

// TestClosedDataPairsMatchesReference checks core.ClosedDataPairs, the
// size-2 screen, against the oracle on unscreened graphs: small ones, one
// streamed size (n=2050, two closed pairs), and a hand-built closed pair.
func TestClosedDataPairsMatchesReference(t *testing.T) {
	check := func(g *graph.Graph, name string) {
		if got, want := core.ClosedDataPairs(g), defect.ReferenceScan(g, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ClosedDataPairs = %v, reference = %v", name, got, want)
		}
	}
	for _, tc := range []struct {
		n     int
		seeds []uint64
	}{{96, []uint64{0, 1, 2, 3, 4, 5, 6, 7}}, {2050, []uint64{3}}} {
		p := core.DefaultParams()
		p.TotalNodes = tc.n
		for _, seed := range tc.seeds {
			g, err := core.GenerateUnscreened(p, rand.New(rand.NewPCG(seed, 0)))
			if err != nil {
				t.Fatalf("n=%d seed %d: %v", tc.n, seed, err)
			}
			check(g, fmt.Sprintf("n=%d seed %d", tc.n, seed))
		}
	}
	// Two data nodes wired to exactly the same two checks.
	b := graph.NewBuilder(4)
	b.AddLevel(0, 4, 2)
	b.AddLevel(4, 2, 1)
	b.AddLevel(4, 2, 1)
	g := b.Graph()
	g.SetNeighbors(4, []int{0, 1, 2})
	g.SetNeighbors(5, []int{0, 1, 3})
	g.SetNeighbors(6, []int{4, 5})
	g.SetNeighbors(7, []int{4})
	if fs := core.ClosedDataPairs(g); len(fs) != 1 || !slices.Equal(fs[0].Lefts, []int{0, 1}) {
		t.Fatalf("hand-built closed pair not found: %v", fs)
	}
	check(g, "hand-built")
}

// TestUpdateMatchesRescan is the property behind generation's repair loop:
// after any rewire of one data node's edge, Update on the old findings
// equals a full rescan of the edited graph, order included. The graphs are
// unscreened, so closed sets appear and disappear as edges move.
func TestUpdateMatchesRescan(t *testing.T) {
	changed := 0
	for _, n := range []int{16, 32, 96, 2050} {
		p := core.DefaultParams()
		p.TotalNodes = n
		if n <= 32 {
			p.MinFinalLeft = 4
		}
		rewires := 40
		if n > 1024 {
			rewires = 4
		}
		for seed := uint64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(n)))
			g, err := core.GenerateUnscreened(p, rng)
			if err != nil {
				t.Fatalf("n=%d seed %d: %v", n, seed, err)
			}
			fs := defect.MustScanData(t, g, 3)
			lv := g.Levels[0]
			for i := 0; i < rewires; i++ {
				l := rng.IntN(g.Data)
				ps := g.Parents(l)
				from := int(ps[rng.IntN(len(ps))])
				to := lv.RightFirst + rng.IntN(lv.RightCount)
				if g.HasEdge(to, l) || g.RightDegree(from) <= 1 {
					continue
				}
				g.RewireEdge(l, from, to)
				got := defect.Update(g, fs, l, 3)
				want := defect.MustScanData(t, g, 3)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d seed %d: after rewiring %d from %d to %d, Update = %v, rescan = %v", n, seed, l, from, to, got, want)
				}
				if !reflect.DeepEqual(fs, want) {
					changed++
				}
				fs = want
			}
		}
	}
	if changed == 0 {
		t.Error("no rewire changed the findings: the property was never exercised")
	}
}
