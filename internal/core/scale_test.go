package core

import (
	"context"
	"math"
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

// TestStreamGenerate100kSurvivesThreeLosses pins the archival-scale screen:
// the n=100,000 seed-2006 graph has no stopping set of at most 3 nodes that
// holds data, so no 3 lost nodes lose data. Before generation screened
// closed sets of size 3 at this scale, three closed triangles of degree-2
// data nodes survived it.
func TestStreamGenerate100kSurvivesThreeLosses(t *testing.T) {
	if testing.Short() {
		t.Skip("n=100,000 generation and stopping-set search")
	}
	g, st, err := Generate(streamParams(100000), rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatal(err)
	}
	const fp = "0cee1db54c364765b75951fe9dbcd580371c78dc3e4e548aca0654376a844ce1"
	if st.Rewires != 6 || g.Fingerprint() != fp {
		t.Errorf("%d rewires, fingerprint %s; want 6, %s", st.Rewires, g.Fingerprint(), fp)
	}
	e := decode.NewStoppingEnumerator(decode.NewCSR(g))
	var sets [][]int
	for v := range g.Data {
		sets, _ = e.Root(sets[:0], v, 3, math.MaxInt64)
		if len(sets) > 0 {
			t.Fatalf("stopping set %v of at most 3 nodes holds data", sets[0])
		}
	}
}
