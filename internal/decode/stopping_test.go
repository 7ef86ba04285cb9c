package decode_test

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/sim"
)

// FuzzStoppingMatchesScan is the stopping-set path's randomized arm, on
// seeded random cascades. The enumerator's sets must each be no larger than
// the bound, ascending, fail under ReferenceRecoverable and have the root
// as their smallest data member, and every minimal failing set must be
// among them. sim.ExhaustiveKCtx, which answers from those sets (or hands
// the cardinality to the scan when their closure is over budget), must
// return exactly the scan's count and recorded sets (sim.ScanRangeCtx over
// the whole rank space), and both must equal the brute-force count and
// lexicographically smallest failing sets under ReferenceRecoverable.
//
// The second arm marks a random subset of nodes never erased. Every set
// recorded then avoids them and fails, every minimal failing set that
// avoids them is recorded from its smallest data member, and a search from
// v with no root ban (lo = 0) records every one that holds v.
func FuzzStoppingMatchesScan(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(2006), uint64(0))
	f.Add(uint64(0x5709), uint64(7))
	f.Fuzz(func(t *testing.T, seed, stream uint64) {
		ctx := context.Background()
		rng := rand.New(rand.NewPCG(seed, stream))
		g := decode.RandomCascade(rng)
		en := decode.NewStoppingEnumerator(g, nil)
		maxF := 1 + rng.IntN(8)
		for k := 1; k <= min(5, g.Total); k++ {
			total, _ := combin.BinomialInt64(g.Total, k)
			if total > 50_000 {
				break
			}
			var found [][]int
			for v0 := 0; v0 < g.Data; v0++ {
				sets, complete := en.Root(nil, v0, v0, k, math.MaxInt64)
				if !complete {
					t.Fatalf("k=%d root %d: an unlimited search reports a spent budget", k, v0)
				}
				for _, s := range sets {
					if len(s) > k || !slices.IsSorted(s) || s[0] != v0 || decode.ReferenceRecoverable(g, s) {
						t.Fatalf("k=%d root %d: recorded %v, want ≤ k ascending nodes from the root that fail", k, v0, s)
					}
					found = append(found, s)
				}
			}

			never := make([]bool, g.Total)
			for v := range never {
				never[v] = rng.IntN(4) == 0
			}
			fixed := decode.NewStoppingEnumerator(g, func(v int) bool { return never[v] })
			var avoiding [][]int
			holding := make([][][]int, g.Data) // per data node v: the sets a search from v with no root ban records
			for v0 := 0; v0 < g.Data; v0++ {
				sets, _ := fixed.Root(nil, v0, v0, k, math.MaxInt64)
				avoiding = append(avoiding, sets...)
				holding[v0], _ = fixed.Root(nil, v0, 0, k, math.MaxInt64)
				for i, s := range slices.Concat(sets, holding[v0]) {
					if len(s) > k || !slices.Contains(s, v0) || i < len(sets) && s[0] != v0 ||
						slices.ContainsFunc(s, func(v int) bool { return never[v] }) || decode.ReferenceRecoverable(g, s) {
						t.Fatalf("k=%d root %d, never erased %v: recorded %v, want ≤ k nodes with the root (the smallest under its ban), none never erased, that fail", k, v0, never, s)
					}
				}
			}

			var fails int64
			var smallest [][]int
			has := func(sets [][]int, s []int) bool {
				return slices.ContainsFunc(sets, func(f []int) bool { return slices.Equal(f, s) })
			}
			combin.ForEach(g.Total, k, func(idx []int) bool {
				if decode.ReferenceRecoverable(g, idx) {
					return true
				}
				fails++
				if len(smallest) < maxF {
					smallest = append(smallest, slices.Clone(idx))
				}
				for drop := range idx {
					if !decode.ReferenceRecoverable(g, slices.Delete(slices.Clone(idx), drop, drop+1)) {
						return true // not minimal
					}
				}
				if !has(found, idx) {
					t.Fatalf("k=%d: minimal failing set %v not enumerated (graph %v)", k, idx, g)
				}
				if slices.ContainsFunc(idx, func(v int) bool { return never[v] }) {
					return true
				}
				if !has(avoiding, idx) {
					t.Fatalf("k=%d, never erased %v: minimal failing set %v not enumerated (graph %v)", k, never, idx, g)
				}
				for _, v := range idx {
					if v < g.Data && !has(holding[v], idx) {
						t.Fatalf("k=%d, never erased %v: minimal failing set %v not found from %d with no root ban (graph %v)", k, never, idx, v, g)
					}
				}
				return true
			})

			got, err := sim.ExhaustiveKCtx(ctx, g, k, maxF, 1+rng.IntN(3))
			if err != nil {
				t.Fatal(err)
			}
			scan, err := sim.ScanRangeCtx(ctx, g, k, 0, total, maxF)
			if err != nil {
				t.Fatal(err)
			}
			if got.Tested != total || got.FailureCount != scan.FailureCount || !reflect.DeepEqual(got.Failures, scan.Failures) {
				t.Fatalf("k=%d: stopping sets %+v, scan %+v (graph %v)", k, got, scan, g)
			}
			if got.FailureCount != fails || !reflect.DeepEqual(got.Failures, smallest) {
				t.Fatalf("k=%d: %d failures %v, reference %d %v (graph %v)", k, got.FailureCount, got.Failures, fails, smallest, g)
			}
		}
	})
}

// TestStoppingRootWork guards the enumerator's pruning: on the shipped
// graphs at k = 5 the search from every root completes within 1,800
// options. Branching on the narrowest violated check, the largest roots
// take 879 / 1,355 / 887 options on tornado96-1..3; branching on the
// lowest-numbered one, they took 2,805 / 2,368 / 2,702.
func TestStoppingRootWork(t *testing.T) {
	const budget = 1800
	for _, name := range []string{"tornado96-1", "tornado96-2", "tornado96-3"} {
		g, err := graphml.ReadFile("../../precompiled/" + name + ".graphml")
		if err != nil {
			t.Fatal(err)
		}
		en := decode.NewStoppingEnumerator(g, nil)
		for v0 := 0; v0 < g.Data; v0++ {
			if _, complete := en.Root(nil, v0, v0, 5, budget); !complete {
				t.Errorf("%s root %d: the k=5 search spends its budget of %d options", name, v0, budget)
			}
		}
	}
}

// BenchmarkStoppingRoot is the stopping-set search of one exhaustive
// cardinality, every root in turn on one enumerator: tornado96-1 at k = 5,
// 6 and 7, the kernel under the worst-case search, and the screened
// seed-2006 n=30,000 graph (certify_scale's) at k = 3, where the search
// holds few violated checks among many nodes. options/op counts the
// options tried (Root's budget steps).
func BenchmarkStoppingRoot(b *testing.B) {
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	p.TotalNodes = 30000
	scale, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{{"k=5", g, 5}, {"k=6", g, 6}, {"k=7", g, 7}, {"n=30000/k=3", scale, 3}} {
		en := decode.NewStoppingEnumerator(c.g, nil)
		b.Run(c.name, func(b *testing.B) {
			var tried int64
			for range b.N {
				for v0 := 0; v0 < c.g.Data; v0++ {
					en.Root(nil, v0, v0, c.k, math.MaxInt64)
					tried += math.MaxInt64 - en.Left()
				}
			}
			b.ReportMetric(float64(tried)/float64(b.N), "options/op")
		})
	}
}
