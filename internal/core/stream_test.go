package core

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

func streamParams(n int) Params {
	p := DefaultParams()
	p.TotalNodes = n
	return p
}

// TestPlanLevelsLargeMatchesPlanLevels: on clean halving chains the
// generalized planner must agree exactly with the historical one, so the
// sub-threshold graphs are planned identically no matter which entry point
// a caller uses.
func TestPlanLevelsLargeMatchesPlanLevels(t *testing.T) {
	for _, n := range []int{8, 32, 96, 192, 384, 768, 1536} {
		p := streamParams(n)
		want, err := PlanLevels(p)
		if err != nil {
			continue // not a clean chain at this MinFinalLeft; covered below
		}
		got, err := PlanLevelsLarge(p)
		if err != nil {
			t.Fatalf("n=%d: PlanLevelsLarge: %v", n, err)
		}
		if got.DataNodes != want.DataNodes || !slices.Equal(got.CheckSizes, want.CheckSizes) {
			t.Fatalf("n=%d: PlanLevelsLarge = %v, PlanLevels = %v", n, got, want)
		}
	}
}

// TestPlanLevelsLargeBudget: for arbitrary even sizes — including the
// odd-halving chains PlanLevels rejects, like 10000 → 5000 → … → 625 —
// the check sizes must sum exactly to the data count (rate 1/2), every
// level must be nonempty, and the final two stages must fit their shared
// left range.
func TestPlanLevelsLargeBudget(t *testing.T) {
	for _, n := range []int{8, 10, 96, 1000, 2006, 10000, 20000, 99998, 100000} {
		p := streamParams(n)
		plan, err := PlanLevelsLarge(p)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if plan.DataNodes != n/2 {
			t.Fatalf("n=%d: data = %d, want %d", n, plan.DataNodes, n/2)
		}
		sum := 0
		for _, c := range plan.CheckSizes {
			if c < 1 {
				t.Fatalf("n=%d: empty level in %v", n, plan.CheckSizes)
			}
			sum += c
		}
		if sum != plan.DataNodes {
			t.Fatalf("n=%d: check sizes %v sum to %d, want %d", n, plan.CheckSizes, sum, plan.DataNodes)
		}
		if len(plan.CheckSizes) < 2 {
			t.Fatalf("n=%d: plan %v lacks the final stage pair", n, plan.CheckSizes)
		}
		// The final two stages share the left range fed by the previous
		// level (or the data nodes); each must not exceed it.
		sharedLeft := plan.DataNodes
		if len(plan.CheckSizes) > 2 {
			sharedLeft = plan.CheckSizes[len(plan.CheckSizes)-3]
		}
		a := plan.CheckSizes[len(plan.CheckSizes)-2]
		b := plan.CheckSizes[len(plan.CheckSizes)-1]
		if a > sharedLeft || b > sharedLeft {
			t.Fatalf("n=%d: final stages %d+%d exceed shared left range %d", n, a, b, sharedLeft)
		}
	}
	if _, err := PlanLevelsLarge(streamParams(7)); err == nil {
		t.Error("odd TotalNodes accepted")
	}
}

// TestStreamGenerateScreened10k builds a screened n=10,000 cascade — the
// archival-scale acceptance size, an odd-halving chain the historical
// planner cannot lay out — and checks structure, determinism, and that the
// screen repaired every closed set of up to 3 nodes.
func TestStreamGenerateScreened10k(t *testing.T) {
	p := streamParams(10000)
	g, st, err := Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.Data != 5000 || g.Total != 10000 {
		t.Fatalf("got %d data / %d total, want 5000/10000", g.Data, g.Total)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d := g.AvgDataDegree(); d < 2.5 || d > 5 {
		t.Errorf("avg data degree %.2f outside the heavy-tail band", d)
	}
	if fs := dataDefects(g, 3); len(fs) != 0 {
		t.Errorf("screened graph still has %d closed sets: %v (stats %+v)", len(fs), fs[0], st)
	}
	if st.Rewires != 3 {
		t.Errorf("%d rewires, want 3 (two closed pairs and a closed triple)", st.Rewires)
	}
	// Same seed, same graph.
	g2, _, err := Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatalf("second Generate: %v", err)
	}
	if g.Fingerprint() != g2.Fingerprint() {
		t.Error("generation is not deterministic per seed")
	}
}

// TestStreamGenerateFingerprints pins streamed generation, repair included.
// The rewire counts show how many closed sets each seed repaired; every
// seed here but n=2050 seed 3 (pairs only) starts with closed triples.
func TestStreamGenerateFingerprints(t *testing.T) {
	for _, tc := range []struct {
		n       int
		seed    uint64
		rewires int
		fp      string
	}{
		{1026, 0, 2, "04518a77cf83044471abf30932b7b2aff37d10c3761b56daa1da18548a6efcc2"},
		{1026, 1, 2, "906c1fc5d8fde07161a06ccc2f0a0b0cb9c3590cc7398edd2e63c2afe7af69c5"},
		{1026, 3, 5, "67da177bb73f7c4c1cea67aa971eea7143a59b559d07eb6d5e462450e0d91602"},
		{2050, 3, 2, "2161b5cf14f524c8cf16a52b7cf90d0efcb0e0fd2a3725583734047db1c4e90c"},
		{4000, 0, 7, "eaba4b2ad06cfb6b999e7e3c886bbca48c0a91d2196b93078bf19570d20ae005"},
	} {
		g, st, err := Generate(streamParams(tc.n), rand.New(rand.NewPCG(tc.seed, 0)))
		if err != nil {
			t.Fatalf("n=%d seed %d: %v", tc.n, tc.seed, err)
		}
		if st.Rewires != tc.rewires || g.Fingerprint() != tc.fp {
			t.Errorf("n=%d seed %d: %d rewires, fingerprint %s; want %d, %s",
				tc.n, tc.seed, st.Rewires, g.Fingerprint(), tc.rewires, tc.fp)
		}
	}
}

// TestStreamMemoryCeiling asserts the streaming construction allocates
// O(edges), not O(n²): a quadratic intermediate at n=10,000 would cost
// hundreds of megabytes (5000² ints alone is 200 MB); the whole build must
// stay under a ceiling a few times the edge storage. TotalAlloc is
// cumulative, so the measurement is immune to GC timing.
func TestStreamMemoryCeiling(t *testing.T) {
	p := streamParams(10000)
	rng := rand.New(rand.NewPCG(7, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := GenerateUnscreened(p, rng)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("GenerateUnscreened: %v", err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	const ceiling = 48 << 20
	if allocated > ceiling {
		t.Fatalf("n=10k unscreened build allocated %d MB, ceiling %d MB (edges: %d)",
			allocated>>20, ceiling>>20, g.EdgeCount())
	}
}

// TestStreamFingerprintPermutationStability: the content fingerprint must
// not depend on edge insertion order at scale — resume/caching keys on it.
func TestStreamFingerprintPermutationStability(t *testing.T) {
	p := streamParams(2000)
	g, err := GenerateUnscreened(p, rand.New(rand.NewPCG(11, 0)))
	if err != nil {
		t.Fatalf("GenerateUnscreened: %v", err)
	}
	fp := g.Fingerprint()
	perm := g.Clone()
	rng := rand.New(rand.NewPCG(12, 0))
	for r := perm.Data; r < perm.Total; r++ {
		ls := perm.LeftNeighbors(r)
		lefts := make([]int, len(ls))
		for i, l := range ls {
			lefts[i] = int(l)
		}
		rng.Shuffle(len(lefts), func(i, j int) { lefts[i], lefts[j] = lefts[j], lefts[i] })
		perm.SetNeighbors(r, lefts)
	}
	if err := perm.Validate(); err != nil {
		t.Fatalf("permuted graph invalid: %v", err)
	}
	if perm.Fingerprint() != fp {
		t.Error("fingerprint changed under edge-order permutation")
	}
}
