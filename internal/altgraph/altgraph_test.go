package altgraph

import (
	"context"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/sim"
)

func TestRegularSingleStage(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, deg := range []int{4, 11} {
		g, err := RegularSingleStage(48, deg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.Total != 96 || g.Data != 48 || len(g.Levels) != 1 {
			t.Fatalf("deg %d: shape %v", deg, g)
		}
		for v := 0; v < g.Total; v++ {
			var got int
			if g.IsData(v) {
				got = g.Degree(v)
			} else {
				got = g.RightDegree(v)
			}
			if got != deg {
				t.Fatalf("deg %d: node %d has degree %d", deg, v, got)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegularSingleStageErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	if _, err := RegularSingleStage(8, 0, rng); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := RegularSingleStage(8, 9, rng); err == nil {
		t.Error("degree > nodes accepted")
	}
	// deg == data forces the complete bipartite graph; it must still work.
	g, err := RegularSingleStage(4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 16 {
		t.Errorf("complete graph edges = %d", g.EdgeCount())
	}
}

func TestFixedCascadeStructure(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, deg := range []int{3, 4, 6} {
		g, err := FixedCascade(96, deg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.Total != 96 || g.Data != 48 || len(g.Levels) != 4 {
			t.Fatalf("deg %d: shape %v", deg, g)
		}
		// Every data node has exactly the fixed degree.
		for v := 0; v < g.Data; v++ {
			if g.Degree(v) != deg {
				t.Fatalf("deg %d: data node %d has degree %d", deg, v, g.Degree(v))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDoubledTornado(t *testing.T) {
	g, _, err := DoubledTornado(core.DefaultParams(), rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Doubling the edge-degree distribution roughly doubles the average
	// data degree (7.2 vs 3.6); assert it is clearly higher.
	plain, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(4, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if g.AvgDataDegree() < plain.AvgDataDegree()+1.5 {
		t.Errorf("doubled avg degree %.2f vs plain %.2f", g.AvgDataDegree(), plain.AvgDataDegree())
	}
	// Minimum data degree doubles too: no degree-2 or degree-3 data nodes.
	s := g.Summary()
	if s.MinDataDegree < 4 {
		t.Errorf("doubled min data degree = %d, want >= 4", s.MinDataDegree)
	}
}

func TestShiftedTornado(t *testing.T) {
	g, _, err := ShiftedTornado(core.DefaultParams(), rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.Summary()
	if s.MinDataDegree < 3 {
		t.Errorf("shifted min data degree = %d, want >= 3 (distribution starts at 3)", s.MinDataDegree)
	}
}

func TestRegularGraphsHaveWorseFirstFailureThanScreenedTornado(t *testing.T) {
	// Qualitative Table 3 shape: regular single-stage graphs fail early
	// compared with screened+adjusted Tornado graphs. Here we just verify
	// the regular graph's first failure is small (<= 4, paper: 4).
	rng := rand.New(rand.NewPCG(6, 6))
	g, err := RegularSingleStage(48, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("this draw tolerates 4 losses; acceptable for a random graph")
	}
	t.Logf("regular deg-4 first failure = %d", res.FirstFailure)
	if res.FirstFailure > 4 {
		t.Errorf("first failure %d, expected <= 4", res.FirstFailure)
	}
}
