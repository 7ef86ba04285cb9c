package sim

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/obs"
)

// slicedTestGraphs returns small, structurally diverse graphs whose rank
// spaces are exhaustively scannable in a test: mirrored systems (dense
// failure sets at low k), and seeded random cascades with shared checks
// and multi-level structure.
func slicedTestGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	gs := []*graph.Graph{mirrorGraph(4), mirrorGraph(6)}
	for seed := uint64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x517CED))
		for {
			data := 4 + rng.IntN(8)
			b := graph.NewBuilder(data)
			leftFirst, leftCount := 0, data
			for li := 0; li < 1+rng.IntN(2); li++ {
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
			if g.Total <= 18 {
				gs = append(gs, g)
				break
			}
		}
	}
	return gs
}

// TestSlicedScanMatchesScalarExhaustive scans every whole rank space of
// every small graph at k ≤ 5 with both kernels: RangeResults (counts AND
// witness lists) must be bit-identical.
func TestSlicedScanMatchesScalarExhaustive(t *testing.T) {
	ctx := context.Background()
	for gi, g := range slicedTestGraphs(t) {
		for k := 1; k <= min(5, g.Total); k++ {
			total, ok := combin.BinomialInt64(g.Total, k)
			if !ok {
				t.Fatal("rank space overflow")
			}
			want, err := scanRangeScalar(ctx, g, k, 0, total, int(total))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ScanRangeCtx(ctx, g, k, 0, total, int(total))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d k=%d: sliced %+v, scalar %+v", gi, k, got, want)
			}
		}
	}
}

// TestSlicedScanSubranges compares the kernels on random, deliberately
// word-unaligned subranges — the shard shapes campaign tiling produces —
// including a small maxFailures cap so witness truncation is identical.
func TestSlicedScanSubranges(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(9, 0x5AB))
	for gi, g := range slicedTestGraphs(t) {
		for k := 2; k <= min(4, g.Total); k++ {
			total, _ := combin.BinomialInt64(g.Total, k)
			for trial := 0; trial < 8; trial++ {
				lo := rng.Int64N(total)
				hi := lo + rng.Int64N(total-lo+1)
				maxF := 1 + int(rng.Int64N(4))
				want, err := scanRangeScalar(ctx, g, k, lo, hi, maxF)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ScanRangeCtx(ctx, g, k, lo, hi, maxF)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d k=%d [%d,%d) maxF=%d: sliced %+v, scalar %+v",
						gi, k, lo, hi, maxF, got, want)
				}
			}
		}
	}
}

// TestSlicedWorkerIndependence: 1/4/16 workers must produce bit-identical
// KResults from the sliced path, all equal to the scalar result — the
// worker-count-determinism guarantee the campaign layer rests on.
func TestSlicedWorkerIndependence(t *testing.T) {
	ctx := context.Background()
	g := mirrorGraph(8) // k=3 has many failures → witness merging is exercised
	for k := 2; k <= 3; k++ {
		want, err := exhaustiveKScalar(g, k, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 16} {
			got, err := ExhaustiveKCtx(ctx, g, k, 8, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d workers=%d: sliced %+v, scalar %+v", k, workers, got, want)
			}
		}
	}
}

// TestSlicedProgressCountsPatterns is the satellite-fix regression: the
// sliced path evaluates 64 patterns per kernel word, and the progress
// counters must report evaluated patterns (so comb/sec gauges and
// campaign ETAs stay truthful), not words. The flushed totals must equal
// the combin count exactly.
func TestSlicedProgressCountsPatterns(t *testing.T) {
	reg := obs.NewRegistry()
	old := Metrics()
	SetMetrics(reg)
	defer SetMetrics(old)

	g := mirrorGraph(6)
	const k = 3
	total, _ := combin.BinomialInt64(g.Total, k)
	rr, err := ScanRangeCtx(context.Background(), g, k, 0, total, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Tested != total {
		t.Fatalf("RangeResult.Tested = %d, want C(%d,%d) = %d", rr.Tested, g.Total, k, total)
	}
	if got := reg.Counter(MetricCombinationsTested).Value(); got != total {
		t.Fatalf("%s = %d, want %d (patterns, not words)", MetricCombinationsTested, got, total)
	}
	if got := reg.Counter(MetricFailuresFound).Value(); got != rr.FailureCount {
		t.Fatalf("%s = %d, want %d", MetricFailuresFound, got, rr.FailureCount)
	}
}

// TestSlicedGoldenTornado96 pins WorstCaseCtx against the precompiled
// scalar certification results of the three paper graphs: per-k tested /
// failure counts, first failure, and the exact critical sets. Graphs 2
// and 3 first fail at k=4; graph 1 survives to k=5 with 16 critical sets
// among 61M patterns. TestStoppingMatchesScan holds the sliced scan to the
// same answers.
func TestSlicedGoldenTornado96(t *testing.T) {
	type pin struct {
		file         string
		firstFailure int
		perK         map[int][2]int64 // k -> {failures, tested}
		critical     [][]int
	}
	pins := []pin{
		{
			file:         "tornado96-1.graphml",
			firstFailure: 5,
			perK: map[int][2]int64{
				1: {0, 96}, 2: {0, 4560}, 3: {0, 142880}, 4: {0, 3321960}, 5: {16, 61124064},
			},
			critical: [][]int{
				{1, 9, 10, 16, 17}, {1, 9, 10, 17, 43}, {1, 15, 16, 25, 42},
				{2, 15, 23, 27, 30}, {4, 25, 29, 41, 47}, {5, 8, 18, 20, 47},
				{5, 16, 18, 20, 38}, {5, 18, 19, 35, 43}, {6, 8, 26, 37, 47},
				{6, 15, 26, 30, 37}, {6, 16, 28, 36, 38}, {8, 16, 20, 38, 47},
				{11, 16, 20, 38, 43}, {15, 16, 20, 30, 38}, {19, 25, 28, 29, 34},
				{20, 26, 28, 36, 37},
			},
		},
		{
			file:         "tornado96-2.graphml",
			firstFailure: 4,
			perK: map[int][2]int64{
				1: {0, 96}, 2: {0, 4560}, 3: {0, 142880}, 4: {1, 3321960},
			},
			critical: [][]int{{0, 3, 13, 14}},
		},
		{
			file:         "tornado96-3.graphml",
			firstFailure: 4,
			perK: map[int][2]int64{
				1: {0, 96}, 2: {0, 4560}, 3: {0, 142880}, 4: {3, 3321960},
			},
			critical: [][]int{{2, 14, 56, 61}, {22, 33, 34, 39}, {27, 29, 30, 38}},
		},
	}
	for _, p := range pins {
		p := p
		t.Run(p.file, func(t *testing.T) {
			g, err := graphml.ReadFile("../../precompiled/" + p.file)
			if err != nil {
				t.Fatal(err)
			}
			res, err := WorstCaseCtx(context.Background(), g, WorstCaseOptions{
				MaxK: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || res.FirstFailure != p.firstFailure {
				t.Fatalf("first failure = %d (found=%v), want %d", res.FirstFailure, res.Found, p.firstFailure)
			}
			if len(res.PerK) != len(p.perK) {
				t.Fatalf("examined %d cardinalities, want %d", len(res.PerK), len(p.perK))
			}
			for _, kr := range res.PerK {
				want, ok := p.perK[kr.K]
				if !ok {
					t.Fatalf("unexpected cardinality %d examined", kr.K)
				}
				if kr.FailureCount != want[0] || kr.Tested != want[1] {
					t.Fatalf("k=%d: %d failures / %d tested, want %d / %d",
						kr.K, kr.FailureCount, kr.Tested, want[0], want[1])
				}
			}
			last := res.PerK[len(res.PerK)-1]
			if !reflect.DeepEqual(last.Failures, p.critical) {
				t.Fatalf("critical sets = %v, want %v", last.Failures, p.critical)
			}
		})
	}
}

// TestSlicedScanRange96Smoke runs the sliced whole-space scan of the
// 96-node graph at k=3 against the scalar oracle in a plain test.
func TestSlicedScanRange96Smoke(t *testing.T) {
	g := ctxTestGraph(t)
	const k = 3
	total, _ := combin.BinomialInt64(g.Total, k)
	want, err := scanRangeScalar(context.Background(), g, k, 0, total, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScanRangeCtx(context.Background(), g, k, 0, total, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sliced %+v, scalar %+v", got, want)
	}
}

// TestLoopsDoNotAllocate is the allocation gate on the certification
// loops. Each call's set-up may allocate; its pattern or trial loop may
// not, so the allocation count must be the same on an 8x longer run:
// ScanRangeCtx over a mid-rank k=5 window (witnesses off), a fresh
// orderSampler at k=36 (about half the orders are still undecoded with 36
// nodes to arrive, so their peels run to the limit), and a warm
// StratifiedSampler.SampleBlock.
func TestLoopsDoNotAllocate(t *testing.T) {
	ctx := context.Background()
	g := ctxTestGraph(t)
	total, _ := combin.BinomialInt64(g.Total, 5)
	sp := NewStratifiedSampler(decode.NewCSR(g))
	for _, tc := range []struct {
		name  string
		short int64
		run   func(n int64) error
	}{
		{"ScanRangeCtx", 1 << 14, func(n int64) error {
			_, err := ScanRangeCtx(ctx, g, 5, total/2, total/2+n, 0)
			return err
		}},
		{"orderSampler.sample", 1 << 10, func(n int64) error {
			_, err := newOrderSampler(decode.NewCSR(g)).sample(ctx, 36, 36, n, 2006, 0)
			return err
		}},
		{"SampleBlock", 1 << 12, func(n int64) error {
			_, err := sp.SampleBlock(ctx, 5, n, 1, 0, 0)
			return err
		}},
	} {
		allocs := func(n int64) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := tc.run(n); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(tc.short), allocs(8*tc.short); short != long {
			t.Errorf("%s allocates %.0f/call over %d patterns, %.0f over %d; its loop must not allocate",
				tc.name, short, tc.short, long, 8*tc.short)
		}
	}
}

// TestSlicedK6SpotCheck spot-checks the sliced kernel at k=6 on a real
// certified graph — the cardinality the full-graph exhaustive tests stop
// short of (C(96,6) = 927M patterns). Erasure failure is monotone, so
// tornado96-1's pinned k=5 critical set {1,9,10,16,17} plus any sixth
// node must fail; the test scans a 4M-pattern window centered on one
// such witness and requires the sliced and scalar kernels to return
// byte-identical results, including at least that one failure.
func TestSlicedK6SpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("k=6 spot check (4M patterns, scalar and sliced) skipped in -short mode")
	}
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	witness := []int{1, 9, 10, 16, 17, 18}
	if decode.NewKernel(decode.NewCSR(g)).Recoverable(witness) {
		t.Fatalf("witness %v is a superset of a pinned k=5 critical set and must fail", witness)
	}
	total, ok := combin.BinomialInt64(g.Total, k)
	if !ok {
		t.Fatal("C(96,6) overflows int64?")
	}
	r := combin.GrayRank(witness, g.Total)
	lo, hi := max(r-2<<20, 0), min(r+2<<20, total)
	scalar, err := scanRangeScalar(context.Background(), g, k, lo, hi, 64)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := ScanRangeCtx(context.Background(), g, k, lo, hi, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar, sliced) {
		t.Fatalf("k=6 window [%d,%d): scalar %+v != sliced %+v", lo, hi, scalar, sliced)
	}
	if scalar.FailureCount == 0 {
		t.Fatalf("k=6 window [%d,%d) around witness rank %d found no failures", lo, hi, r)
	}
}
