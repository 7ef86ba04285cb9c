package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"tornado/internal/decode"
	"tornado/internal/sim"
)

// TestLargerSystems exercises the construction at the larger stripe sizes
// the paper anticipates ("using larger device counts in a coded stripe may
// be appropriate in larger systems", §3): 192- and 384-node graphs must
// build, validate, screen clean, and tolerate small losses.
func TestLargerSystems(t *testing.T) {
	for _, total := range []int{192, 384} {
		p := DefaultParams()
		p.TotalNodes = total
		g, st, err := Generate(p, rand.New(rand.NewPCG(uint64(total), 6)))
		if err != nil {
			t.Fatalf("total=%d: %v", total, err)
		}
		if g.Total != total || g.Data != total/2 {
			t.Fatalf("total=%d: shape %v", total, g)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("total=%d: %v", total, err)
		}
		t.Logf("total=%d: %d levels, %d edges, avg degree %.2f, %d repairs",
			total, len(g.Levels), g.EdgeCount(), g.AvgDataDegree(), st.Rewires)

		// Screened graphs tolerate any 2 losses regardless of size
		// (exhaustive k=2 stays cheap: C(384,2) = 73,536).
		res, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Errorf("total=%d: first failure %d <= 2 after screening", total, res.FirstFailure)
		}
	}
}

// TestLargerSystemDecodeBehavior: the transition sharpens with size (the
// asymptotic property the codes are designed around): at 10%% losses the
// 384-node graph should essentially always recover.
func TestLargerSystemDecodeBehavior(t *testing.T) {
	p := DefaultParams()
	p.TotalNodes = 384
	g, _, err := Generate(p, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}
	d := decode.New(g)
	rng := rand.New(rand.NewPCG(10, 10))
	fails := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		erased := rng.Perm(g.Total)[:38] // ~10% offline
		if !d.Recoverable(erased) {
			fails++
		}
	}
	if fails > trials/20 {
		t.Errorf("384-node graph failed %d/%d at 10%% losses", fails, trials)
	}
}
