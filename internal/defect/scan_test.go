package defect

import (
	"context"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tornado/internal/graph"
)

func TestSealingRights(t *testing.T) {
	fs := MustScanData(t, pairDefect(t), 2)
	if len(fs) != 1 || !slices.Equal(fs[0].Rights, []int{6, 7}) {
		t.Errorf("findings = %v, want the pair sealed by [6 7]", fs)
	}
}

// TestScanMatchesReference is the fixed-fixture arm of the differential
// battery: the search must return the oracle's findings (Level, Lefts and
// Rights, in order) at every worker count.
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
				t.Errorf("%s maxSize=%d: scan = %v, reference = %v", name, maxSize, got, want)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := ScanDataLevelCtx(context.Background(), g, maxSize, workers)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s maxSize=%d workers=%d: scan = %v, reference = %v", name, maxSize, workers, got, want)
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
			for _, workers := range []int{0, 1, 3} {
				got, err := ScanLevelCtx(t.Context(), g, li, 4, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d level %d workers %d: scan = %v, reference = %v", trial, li, workers, got, want)
				}
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
