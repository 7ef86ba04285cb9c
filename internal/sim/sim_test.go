package sim

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/stats"
)

// mirrorGraph builds an n-pair (2n-node) mirrored system: data i is
// mirrored by check n+i.
func mirrorGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	r := b.AddLevel(0, n, n)
	g := b.Graph()
	for i := 0; i < n; i++ {
		g.SetNeighbors(r+i, []int{i})
	}
	g.Name = "mirror"
	return g
}

// exactProfile is g's profile under opts with a KeepGoing worst case folded
// in through opts.MaxK (0: Total), so every point in the window is exact.
func exactProfile(t *testing.T, g *graph.Graph, opts ProfileOptions) *Profile {
	t.Helper()
	p, err := FailureProfileCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := WorstCaseCtx(context.Background(), g, WorstCaseOptions{MaxK: intOr(opts.MaxK, g.Total), MaxFailures: 1, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddExact(wc); err != nil {
		t.Fatal(err)
	}
	return p
}

// mirrorTheory is Equation (1): the probability that k offline drives in an
// n-pair mirrored array lose data, 1 − C(n,k)·2^k / C(2n,k).
func mirrorTheory(nPairs, k int) float64 {
	if k > nPairs {
		return 1
	}
	return 1 - combin.Binomial(nPairs, k)*math.Pow(2, float64(k))/combin.Binomial(2*nPairs, k)
}

func TestWorstCaseMirror(t *testing.T) {
	g := mirrorGraph(8)
	res, err := WorstCaseCtx(context.Background(), g, WorstCaseOptions{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FirstFailure != 2 {
		t.Fatalf("mirror first failure = %d (found=%v), want 2", res.FirstFailure, res.Found)
	}
	k2 := res.PerK[1]
	if k2.K != 2 || k2.FailureCount != 8 {
		t.Errorf("k=2 failures = %d, want 8 (one per pair)", k2.FailureCount)
	}
	if want, _ := combin.BinomialInt64(16, 2); k2.Tested != want {
		t.Errorf("k=2 tested = %d, want %d", k2.Tested, want)
	}
	// Each failure must be a {data, mirror} pair.
	for _, f := range k2.Failures {
		if len(f) != 2 || f[1] != f[0]+8 {
			t.Errorf("failure set %v is not a mirror pair", f)
		}
	}
	// Search must stop at the first failing cardinality by default.
	if len(res.PerK) != 2 {
		t.Errorf("examined %d cardinalities, want 2", len(res.PerK))
	}
}

func TestWorstCaseKeepGoing(t *testing.T) {
	g := mirrorGraph(6)
	res, err := WorstCaseCtx(context.Background(), g, WorstCaseOptions{MaxK: 4, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerK) != 4 {
		t.Fatalf("KeepGoing examined %d cardinalities, want 4", len(res.PerK))
	}
	if res.FirstFailure != 2 {
		t.Errorf("FirstFailure = %d", res.FirstFailure)
	}
	// Exact counts at k=3: failing sets are those containing a dead pair:
	// C(12,3) − C(6,3)·2^3 = 220 − 160 = 60.
	if got := res.PerK[2].FailureCount; got != 60 {
		t.Errorf("k=3 failures = %d, want 60", got)
	}
}

func TestWorstCaseMaxFailuresCap(t *testing.T) {
	g := mirrorGraph(8)
	res, err := WorstCaseCtx(context.Background(), g, WorstCaseOptions{MaxK: 2, MaxFailures: 3})
	if err != nil {
		t.Fatal(err)
	}
	k2 := res.PerK[1]
	if len(k2.Failures) != 3 {
		t.Errorf("recorded %d failures, want cap 3", len(k2.Failures))
	}
	if k2.FailureCount != 8 {
		t.Errorf("count must stay exact under the cap: %d", k2.FailureCount)
	}
}

func TestExhaustiveKMatchesTheory(t *testing.T) {
	// The paper's simulator validation (§3): the mirrored system's failure
	// fractions must equal Equation (1). Exhaustive enumeration makes the
	// comparison exact.
	g := mirrorGraph(8)
	for k := 1; k <= 16; k++ {
		kr, err := ExhaustiveKCtx(context.Background(), g, k, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(kr.FailureCount) / float64(kr.Tested)
		want := mirrorTheory(8, k)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("k=%d: exhaustive fraction %.15f, theory %.15f", k, got, want)
		}
	}
}

func TestExhaustiveKRangeErrors(t *testing.T) {
	g := mirrorGraph(4)
	if _, err := ExhaustiveKCtx(context.Background(), g, 0, 1, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ExhaustiveKCtx(context.Background(), g, 9, 1, 1); err == nil {
		t.Error("k>total accepted")
	}
}

func TestFailureProfileExactMatchesTheory(t *testing.T) {
	g := mirrorGraph(8)
	p := exactProfile(t, g, ProfileOptions{Seed: 1})
	for k := 0; k <= 16; k++ {
		if !p.Exact[k] {
			t.Fatalf("k=%d not exact", k)
		}
		if got, want := p.FailFraction(k), mirrorTheory(8, min(k, 16)); k < 16 && math.Abs(got-want) > 1e-12 {
			t.Errorf("k=%d: profile %.15f, theory %.15f", k, got, want)
		}
	}
	if p.FailFraction(16) != 1 {
		t.Errorf("FailFraction(total) = %v, want 1", p.FailFraction(16))
	}
}

func TestFailureProfileSamplingApproximatesTheory(t *testing.T) {
	g := mirrorGraph(8)
	p, err := FailureProfileCtx(context.Background(), g, ProfileOptions{
		Trials:  40000,
		Seed:    7,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8, 12} {
		got, want := p.FailFraction(k), mirrorTheory(8, k)
		// 40k trials: tolerance ≈ 4σ.
		tol := 4 * math.Sqrt(want*(1-want)/40000)
		if math.Abs(got-want) > tol+1e-9 {
			t.Errorf("k=%d: sampled %.5f, theory %.5f (tol %.5f)", k, got, want, tol)
		}
		if p.Exact[k] {
			t.Errorf("k=%d unexpectedly exact", k)
		}
	}
}

func TestProfileDeterministicSeed(t *testing.T) {
	g := mirrorGraph(6)
	opts := ProfileOptions{Trials: 5000, Seed: 42, Workers: 2}
	a, err := FailureProfileCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FailureProfileCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Fail {
		if a.Fail[k].Hits != b.Fail[k].Hits {
			t.Fatalf("k=%d: hits differ %d vs %d with same seed", k, a.Fail[k].Hits, b.Fail[k].Hits)
		}
	}
}

func TestAvgNodesToReconstructMirror(t *testing.T) {
	g := mirrorGraph(8)
	p := exactProfile(t, g, ProfileOptions{Seed: 1})
	// E[T] = Σ_m P(fail with m online) computed from the exact theory.
	want := 0.0
	for m := 0; m < 16; m++ {
		want += mirrorTheory(8, 16-m)
	}
	got := p.AvgNodesToReconstruct()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgNodesToReconstruct = %v, want %v", got, want)
	}
	if r := p.AvgToReconstructRatio(); math.Abs(r-got/8) > 1e-12 {
		t.Errorf("ratio = %v", r)
	}
}

func TestNodesForSuccessProbability(t *testing.T) {
	g := mirrorGraph(8)
	p := exactProfile(t, g, ProfileOptions{Seed: 1})
	m := p.NodesForSuccessProbability(0.5)
	// Verify directly against theory: success(m) = 1 - theory(16-m).
	for x := 0; x <= 16; x++ {
		success := 1 - mirrorTheory(8, 16-x)
		if x < m && success >= 0.5 {
			t.Errorf("m=%d claimed minimal but %d already succeeds at %.3f", m, x, success)
		}
	}
	if success := 1 - mirrorTheory(8, 16-m); success < 0.5 {
		t.Errorf("m=%d has success %.3f < 0.5", m, success)
	}
	if o := p.Overhead(); math.Abs(o-float64(m)/8) > 1e-12 {
		t.Errorf("Overhead = %v", o)
	}
}

func TestFirstObservedFailure(t *testing.T) {
	g := mirrorGraph(8)
	p := exactProfile(t, g, ProfileOptions{Seed: 1})
	if got := p.FirstObservedFailure(); got != 2 {
		t.Errorf("FirstObservedFailure = %d, want 2", got)
	}
}

func TestScreenedTornadoToleratesTwoLosses(t *testing.T) {
	// Defect screening guarantees no closed pairs, and degree >= 2 covers
	// every single+check combination, so a screened graph's first failure
	// is at least 3 (paper §4.2: screening raised first failure to 4).
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(17, 1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := WorstCaseCtx(context.Background(), g, WorstCaseOptions{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found && res.FirstFailure < 3 {
		t.Errorf("screened tornado first failure = %d, want >= 3", res.FirstFailure)
	}
	t.Logf("worst case up to k=3: found=%v first=%d tested=%d", res.Found, res.FirstFailure, res.Tested)
}

func TestProfilePartialRangeMonotoneExtension(t *testing.T) {
	// A profile measured only up to MaxK must carry its last (≈1) value
	// forward so AvgNodesToReconstruct is not underestimated.
	g := mirrorGraph(8)
	p := exactProfile(t, g, ProfileOptions{Seed: 1, MaxK: 10})
	full := exactProfile(t, g, ProfileOptions{Seed: 1})
	if got, want := p.FailFraction(14), full.FailFraction(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("extension at k=14 = %v, want carried %v", got, want)
	}
	if math.Abs(p.AvgNodesToReconstruct()-full.AvgNodesToReconstruct()) > 1.0 {
		t.Errorf("partial avg %v vs full %v", p.AvgNodesToReconstruct(), full.AvgNodesToReconstruct())
	}
}

func TestProfileFailFractionBounds(t *testing.T) {
	g := mirrorGraph(4)
	p := exactProfile(t, g, ProfileOptions{Seed: 3})
	if p.FailFraction(-1) != 0 {
		t.Error("negative k should report 0")
	}
	if p.FailFraction(8) != 1 || p.FailFraction(99) != 1 {
		t.Error("k >= total should report 1")
	}
	if p.FailFraction(0) != 0 {
		t.Error("k=0 should report 0")
	}
}

// TestAddExact: a worst case folds into a profile as exact points, each
// its failure count over C(Total, k), only when it searched a graph of the
// profile's size; a search of another graph is refused and leaves the
// profile as it was.
func TestAddExact(t *testing.T) {
	ctx := context.Background()
	g := mirrorGraph(8)
	p, err := FailureProfileCtx(ctx, g, ProfileOptions{Trials: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(p.Fail)
	other, err := WorstCaseCtx(ctx, mirrorGraph(9), WorstCaseOptions{MaxK: 3, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddExact(other); err == nil {
		t.Error("a worst case of an 18-node graph folded into a 16-node profile")
	}
	if !slices.Equal(p.Fail, before) || slices.Contains(p.Exact[1:], true) {
		t.Errorf("refused fold changed the profile: %v, exact %v", p.Fail[:4], p.Exact[:4])
	}
	wc, err := WorstCaseCtx(ctx, g, WorstCaseOptions{MaxK: 3, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddExact(wc); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		c, _ := combin.BinomialInt64(16, k)
		want := stats.Proportion{Hits: wc.FailureCountAt(k), Trials: c}
		if k == 4 {
			want = before[4]
		}
		if p.Fail[k] != want || p.Exact[k] != (k <= 3) {
			t.Errorf("k=%d: %+v (exact %v), want %+v", k, p.Fail[k], p.Exact[k], want)
		}
	}
	if p.Fail[2].Hits != 8 {
		t.Errorf("k=2: %d failing pairs, want the 8 mirrored pairs", p.Fail[2].Hits)
	}
}
