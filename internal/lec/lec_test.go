package lec

import (
	"context"
	"math/rand/v2"
	"testing"

	"tornado/internal/decode"
	"tornado/internal/sim"
)

func TestGenerateShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g, st, err := Generate(48, 48, Options{Candidates: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total != 96 || g.Data != 48 || len(g.Levels) != 1 {
		t.Fatalf("shape: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Candidates != 6 {
		t.Errorf("stats: %+v", st)
	}
	// Concentrated degrees: every data node has BaseDegree or BaseDegree+1.
	for v := 0; v < g.Data; v++ {
		if d := g.Degree(v); d != 4 && d != 5 {
			t.Errorf("data node %d degree %d, want 4 or 5", v, d)
		}
	}
}

func TestGenerateSearchPicksGoodCandidate(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g, st, err := Generate(48, 48, Options{Candidates: 10, ScreenK: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The winner's reported first failure must match a fresh measurement.
	wc, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	if wc.Found {
		got = wc.FirstFailure
	}
	if got != st.BestFirstFail {
		t.Errorf("reported first failure %d, measured %d", st.BestFirstFail, got)
	}
	// With concentrated degree-4 nodes, closed pairs are rare: the search
	// should find a candidate tolerating at least 2 losses.
	if st.BestFirstFail != 0 && st.BestFirstFail < 3 {
		t.Errorf("best candidate first-fails at %d", st.BestFirstFail)
	}
}

func TestGenerateSingleLossAlwaysRecoverable(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	g, _, err := Generate(48, 48, Options{Candidates: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := decode.New(g)
	for v := 0; v < g.Total; v++ {
		if !d.Recoverable([]int{v}) {
			t.Errorf("single loss of %d unrecoverable", v)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	if _, _, err := Generate(1, 48, Options{}, rng); err == nil {
		t.Error("1 data node accepted")
	}
	if _, _, err := Generate(48, 1, Options{}, rng); err == nil {
		t.Error("1 check node accepted")
	}
	if _, _, err := Generate(8, 4, Options{BaseDegree: 4}, rng); err == nil {
		t.Error("degree >= checks accepted")
	}
}

func TestGenerateSmall(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	g, _, err := Generate(16, 16, Options{Candidates: 8, BaseDegree: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total != 32 {
		t.Fatalf("shape: %v", g)
	}
}
