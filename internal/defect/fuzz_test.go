package defect

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"tornado/internal/graph"
)

// randomCascade builds a random multi-level graph for differential
// testing, the same shape the decode fuzzer uses: enough structure for
// closed sets to occur at data and check levels alike.
func randomCascade(rng *rand.Rand) *graph.Graph {
	data := 4 + rng.IntN(12)
	b := graph.NewBuilder(data)
	leftFirst, leftCount := 0, data
	levels := 1 + rng.IntN(3)
	for li := 0; li < levels; li++ {
		rightCount := max(1, leftCount/2)
		rf := b.AddLevel(leftFirst, leftCount, rightCount)
		leftFirst, leftCount = rf, rightCount
		if leftCount < 2 {
			break
		}
	}
	g := b.Graph()
	for _, lv := range g.Levels {
		for r := lv.RightFirst; r < lv.RightFirst+lv.RightCount; r++ {
			deg := 1 + rng.IntN(min(3, lv.LeftCount))
			perm := rng.Perm(lv.LeftCount)
			lefts := make([]int, 0, deg)
			for _, p := range perm[:deg] {
				lefts = append(lefts, lv.LeftFirst+p)
			}
			g.SetNeighbors(r, lefts)
		}
	}
	return g
}

// FuzzDefectKernelMatchesReference is the randomized arm of the scan's
// differential battery: a seeded random cascade, scanned by the search at
// several worker counts and by the map-based reference oracle, on every
// level. Any difference in findings — content or order — is a finding.
func FuzzDefectKernelMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(2006), uint64(0))
	f.Add(uint64(0xDEAD), uint64(0xBEEF))
	f.Fuzz(func(t *testing.T, seed, stream uint64) {
		rng := rand.New(rand.NewPCG(seed, stream))
		g := randomCascade(rng)
		maxSize := 2 + rng.IntN(3)

		if got, want := MustScanData(t, g, maxSize), ReferenceScan(g, maxSize); !reflect.DeepEqual(got, want) {
			t.Fatalf("data level: scan = %v, reference = %v (graph %v)", got, want, g)
		}
		for li := range g.Levels {
			want := ReferenceScanLevel(g, li, maxSize)
			for _, workers := range []int{1, 3} {
				got, err := ScanLevelCtx(t.Context(), g, li, maxSize, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("level %d workers %d: scan = %v, reference = %v (graph %v)", li, workers, got, want, g)
				}
			}
		}
	})
}
