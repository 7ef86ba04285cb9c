package defect

import (
	"context"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/graph"
)

// kernelSet collects the current member set of a kernel driven by the test
// (global node IDs), for cross-checking against IsClosedSet.
func closedByOracle(g *graph.Graph, t *Table, local []int) bool {
	S := make([]int, len(local))
	for i, l := range local {
		S[i] = t.LeftFirst + l
	}
	_, ok := IsClosedSet(g, S)
	return ok
}

func TestKernelMatchesIsClosedSet(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *graph.Graph{
		"pair":   pairDefect,
		"triple": tripleDefect,
		"clean":  clean,
	} {
		g := build(t)
		tab := NewDataTable(g)
		kn := NewKernel(tab)
		// Every subset of sizes 1..4 in lexicographic order, rebuilt from
		// scratch via Add, then torn down via Remove.
		for size := 1; size <= min(4, tab.LeftCount); size++ {
			combin.ForEach(tab.LeftCount, size, func(idx []int) bool {
				for _, l := range idx {
					kn.Add(l)
				}
				if got, want := kn.Closed(), closedByOracle(g, tab, idx); got != want {
					t.Errorf("%s: kernel Closed(%v) = %v, oracle = %v", name, idx, got, want)
				}
				for _, l := range idx {
					kn.Remove(l)
				}
				if kn.Closed() {
					t.Fatalf("%s: empty set reported closed after removing %v", name, idx)
				}
				return true
			})
		}
	}
}

func TestKernelSwapMatchesRebuild(t *testing.T) {
	// Drive one kernel through the full revolving-door order and compare
	// against a fresh Add-built kernel at every step.
	g := tripleDefect(t)
	tab := NewDataTable(g)
	for size := 2; size <= 4; size++ {
		idx := make([]int, size)
		combin.First(idx, tab.LeftCount)
		walker := NewKernel(tab)
		for _, l := range idx {
			walker.Add(l)
		}
		for {
			fresh := NewKernel(tab)
			for _, l := range idx {
				fresh.Add(l)
			}
			if walker.Closed() != fresh.Closed() {
				t.Fatalf("size %d: swap-driven kernel diverged at %v", size, idx)
			}
			out, in, ok := combin.GrayNext(idx, tab.LeftCount)
			if !ok {
				break
			}
			walker.Swap(out, in)
		}
	}
}

func TestKernelReset(t *testing.T) {
	g := pairDefect(t)
	kn := NewKernel(NewDataTable(g))
	kn.Add(0)
	kn.Add(1)
	if !kn.Closed() {
		t.Fatal("pair not closed")
	}
	kn.Reset()
	if kn.Closed() {
		t.Error("closed after Reset")
	}
	kn.Add(0)
	kn.Add(1)
	if !kn.Closed() {
		t.Error("kernel unusable after Reset")
	}
}

func TestSealingRights(t *testing.T) {
	g := pairDefect(t)
	tab := NewDataTable(g)
	kn := NewKernel(tab)
	kn.Add(0)
	kn.Add(1)
	if got := kn.sealingRights(nil); !slices.Equal(got, []int{6, 7}) {
		t.Errorf("sealingRights = %v, want [6 7]", got)
	}
}

// TestScanMatchesReference is the fixed-fixture arm of the differential
// battery: the kernel scan must return bit-identical findings to the
// map-based oracle, at every worker count.
func TestScanMatchesReference(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *graph.Graph{
		"pair":   pairDefect,
		"triple": tripleDefect,
		"clean":  clean,
	} {
		g := build(t)
		for maxSize := 2; maxSize <= 4; maxSize++ {
			want := ReferenceScan(g, maxSize)
			if got := MustScanData(t, g, maxSize); !reflect.DeepEqual(got, want) {
				t.Errorf("%s maxSize=%d: kernel = %v, reference = %v", name, maxSize, got, want)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := scanTableCtx(context.Background(), NewDataTable(g), maxSize, workers)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s maxSize=%d workers=%d: kernel = %v, reference = %v", name, maxSize, workers, got, want)
				}
			}
		}
	}
}

func TestScanLevelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	for trial := 0; trial < 20; trial++ {
		g := randomCascade(rng)
		for li := range g.Levels {
			want := ReferenceScanLevel(g, li, 4)
			got, err := ScanLevelCtx(t.Context(), g, li, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d level %d: kernel = %v, reference = %v", trial, li, got, want)
			}
		}
	}
}

func TestScanLevelRejectsBadLevel(t *testing.T) {
	g := clean(t)
	if _, err := ScanLevelCtx(t.Context(), g, -1, 3, 0); err == nil {
		t.Error("no error for level -1")
	}
	if _, err := ScanLevelCtx(t.Context(), g, len(g.Levels), 3, 0); err == nil {
		t.Error("no error for out-of-range level")
	}
}

func TestScanGraphTagsLevels(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 3))
	for trial := 0; trial < 20; trial++ {
		g := randomCascade(rng)
		all, err := ScanGraphCtx(t.Context(), g, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []Finding
		scanned := map[[2]int]bool{}
		for li, lv := range g.Levels {
			key := [2]int{lv.LeftFirst, lv.LeftCount}
			if scanned[key] {
				continue
			}
			scanned[key] = true
			want = append(want, ReferenceScanLevel(g, li, 3)...)
		}
		if !reflect.DeepEqual(all, want) {
			t.Fatalf("trial %d: ScanGraph = %v, per-level reference = %v", trial, all, want)
		}
	}
}

// TestPlantedMinimality plants a closed 2-set inside a larger level and
// checks the two minimality guarantees: the planted set is always found,
// and its supersets are suppressed.
func TestPlantedMinimality(t *testing.T) {
	b := graph.NewBuilder(8)
	r := b.AddLevel(0, 8, 8)
	g := b.Graph()
	g.SetNeighbors(r, []int{3, 5})
	g.SetNeighbors(r+1, []int{3, 5}) // planted: {3,5} sealed by {r, r+1}
	ri := r + 2
	for i := 0; i < 8; i++ {
		if i == 3 || i == 5 {
			continue // no mirror: the planted pair must stay sealed
		}
		g.SetNeighbors(ri, []int{i}) // degree-1 mirrors keep other sets open
		ri++
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for maxSize := 2; maxSize <= 4; maxSize++ {
		fs := MustScanData(t, g, maxSize)
		if len(fs) != 1 {
			t.Fatalf("maxSize=%d: findings = %v, want only the planted pair", maxSize, fs)
		}
		if !slices.Equal(fs[0].Lefts, []int{3, 5}) {
			t.Errorf("maxSize=%d: found %v, want [3 5]", maxSize, fs[0].Lefts)
		}
	}
}

func TestScanDataLevelCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScanDataLevelCtx(ctx, pairDefect(t), 3, 1); err != context.Canceled {
		t.Errorf("ScanDataLevelCtx(canceled) = %v, want context.Canceled", err)
	}
}

func TestFindingStringLevel(t *testing.T) {
	data := Finding{Lefts: []int{17, 22}, Rights: []int{48, 57}}
	if s := data.String(); strings.Contains(s, "level") {
		t.Errorf("data-level String mentions a level: %q", s)
	}
	up := Finding{Level: 2, Lefts: []int{70}, Rights: []int{90}}
	if s := up.String(); !strings.Contains(s, "level 2") {
		t.Errorf("upper-level String lost the level: %q", s)
	}
}

func TestScanMetrics(t *testing.T) {
	g := tripleDefect(t)
	before := Metrics().Snapshot().Counters[MetricSubsetsTested]
	MustScanData(t, g, 3)
	after := Metrics().Snapshot().Counters[MetricSubsetsTested]
	want := int64(combin.Binomial(6, 2) + combin.Binomial(6, 3))
	if after-before != want {
		t.Errorf("subsets tested delta = %d, want %d", after-before, want)
	}
}

// TestKernelLoopZeroAllocs is the allocation gate on the defect scan's
// steady-state loop: one Closed read plus one revolving-door Swap per
// subset, on a prebuilt Table and Kernel, must not allocate.
func TestKernelLoopZeroAllocs(t *testing.T) {
	tab := NewDataTable(bench96Graph())
	kn := NewKernel(tab)
	idx := make([]int, 3)
	combin.First(idx, tab.LeftCount)
	for _, l := range idx {
		kn.Add(l)
	}
	allocs := testing.AllocsPerRun(100, func() {
		kn.Closed()
		out, in, _ := combin.GrayNext(idx, tab.LeftCount)
		kn.Swap(out, in)
	})
	if allocs != 0 {
		t.Fatalf("Closed+Swap allocates %.1f/op; the defect kernel loop must be allocation-free", allocs)
	}
}

// BenchmarkKernelGrayLoop is the steady-state path
// TestKernelLoopZeroAllocs guards: a prebuilt kernel driven through
// revolving-door swaps.
func BenchmarkKernelGrayLoop(b *testing.B) {
	g := bench96Graph()
	tab := NewDataTable(g)
	kn := NewKernel(tab)
	idx := make([]int, 3)
	combin.First(idx, tab.LeftCount)
	for _, l := range idx {
		kn.Add(l)
	}
	closed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kn.Closed() {
			closed++
		}
		out, in, ok := combin.GrayNext(idx, tab.LeftCount)
		if !ok {
			for _, l := range idx {
				kn.Remove(l)
			}
			combin.First(idx, tab.LeftCount)
			for _, l := range idx {
				kn.Add(l)
			}
			continue
		}
		kn.Swap(out, in)
	}
	_ = closed
}

// bench96Graph hand-rolls a 96-node-scale level (defect cannot import
// core: cycle), seeded so benchmark runs compare like with like.
func bench96Graph() *graph.Graph {
	rng := rand.New(rand.NewPCG(1, 1))
	bld := graph.NewBuilder(48)
	r := bld.AddLevel(0, 48, 24)
	g := bld.Graph()
	for i := 0; i < 24; i++ {
		perm := rng.Perm(48)
		g.SetNeighbors(r+i, perm[:3+rng.IntN(5)])
	}
	return g
}

func BenchmarkReferenceScan96(b *testing.B) {
	g := bench96Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceScan(g, 3)
	}
}
