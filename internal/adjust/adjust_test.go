package adjust

import (
	"context"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

// defectivePair builds a 12-node graph whose only worst-case-2 failure is
// the closed pair {0,1} (the paper's "17 [48,57] / 22 [48,57]" situation),
// with enough uninvolved checks for the adjustment to use as replacements.
func defectivePair(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	r := b.AddLevel(0, 6, 6)
	g := b.Graph()
	g.SetNeighbors(r+0, []int{0, 1}) // sealed pair...
	g.SetNeighbors(r+1, []int{0, 1}) // ...defect
	g.SetNeighbors(r+2, []int{2, 3})
	g.SetNeighbors(r+3, []int{4, 5})
	g.SetNeighbors(r+4, []int{2, 4})
	g.SetNeighbors(r+5, []int{3, 5})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func firstFailure(t *testing.T, g *graph.Graph, maxK int) int {
	t.Helper()
	res, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: maxK})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		return maxK + 1
	}
	return res.FirstFailure
}

func TestClearKRemovesClosedPair(t *testing.T) {
	g := defectivePair(t)
	if ff := firstFailure(t, g, 3); ff != 2 {
		t.Fatalf("fixture first failure = %d, want 2", ff)
	}
	improved, rep, err := ClearKCtx(ctx, g, 2, Options{}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cleared {
		t.Fatalf("not cleared: %+v", rep)
	}
	if rep.InitialFailures != 1 || rep.FinalFailures != 0 {
		t.Errorf("failure counts: %+v", rep)
	}
	if len(rep.Rewires) == 0 {
		t.Error("no rewires recorded")
	}
	if err := improved.Validate(); err != nil {
		t.Fatalf("improved graph invalid: %v", err)
	}
	if ff := firstFailure(t, improved, 2); ff != 3 {
		t.Errorf("improved first failure should exceed 2")
	}
	// Input graph must be untouched.
	if ff := firstFailure(t, g, 2); ff != 2 {
		t.Error("ClearK mutated its input")
	}
}

func TestClearKAlreadyClean(t *testing.T) {
	g := defectivePair(t)
	improved, rep, err := ClearKCtx(ctx, g, 1, Options{}, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cleared || rep.InitialFailures != 0 || len(rep.Rewires) != 0 {
		t.Errorf("clean cardinality: %+v", rep)
	}
	if improved.EdgeCount() != g.EdgeCount() {
		t.Error("graph changed despite clean cardinality")
	}
}

func TestImproveRaisesFirstFailure(t *testing.T) {
	g := defectivePair(t)
	improved, reports, err := ImproveCtx(ctx, g, 3, Options{}, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no adjustment reports")
	}
	before := firstFailure(t, g, 3)
	after := firstFailure(t, improved, 3)
	if after <= before {
		t.Errorf("Improve: first failure %d → %d", before, after)
	}
	t.Logf("first failure %d → %d in %d cleared cardinalities", before, after, len(reports))
}

func TestImproveOnScreenedTornado(t *testing.T) {
	// A screened 96-node tornado tolerates 2 losses; Improve at maxK=3
	// should clear any 3-loss failures (cheap: C(96,3) per round).
	gph, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(8, 8)))
	if err != nil {
		t.Fatal(err)
	}
	improved, reports, err := ImproveCtx(ctx, gph, 3, Options{MaxRounds: 12}, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}
	after := firstFailure(t, improved, 3)
	if after < 4 {
		// Improve returns best effort; only fail the test when it claimed
		// success.
		cleared := true
		for _, r := range reports {
			cleared = cleared && r.Cleared
		}
		if cleared {
			t.Errorf("all cardinalities cleared but first failure is %d", after)
		} else {
			t.Logf("adjustment stalled (allowed): first failure %d", after)
		}
	}
}

func TestPickRewireNoFailures(t *testing.T) {
	g := defectivePair(t)
	if _, ok, _ := pickRewire(t.Context(), g, nil, rand.New(rand.NewPCG(1, 2))); ok {
		t.Error("pickRewire with no failures should report false")
	}
}

func TestPickRewireTargetsMostFrequentDataNode(t *testing.T) {
	g := defectivePair(t)
	// Two failure sets both containing node 0; node 0 must be the target.
	failures := [][]int{{0, 1}, {0, 2, 6}}
	rw, ok, err := pickRewire(t.Context(), g, failures, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("pickRewire failed")
	}
	if rw.Left != 0 {
		t.Errorf("target = %d, want 0 (appears in both failure sets)", rw.Left)
	}
	if !g.HasEdge(rw.From, rw.Left) {
		t.Errorf("From %d is not a parent of the target", rw.From)
	}
	if g.HasEdge(rw.To, rw.Left) {
		t.Errorf("To %d already references the target", rw.To)
	}
}
