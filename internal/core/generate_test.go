package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"tornado/internal/decode"
)

func TestPlanLevels96(t *testing.T) {
	plan, err := PlanLevels(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.DataNodes != 48 {
		t.Errorf("DataNodes = %d", plan.DataNodes)
	}
	// Paper layout: 48 | 24 | 12 | 6+6.
	want := []int{24, 12, 6, 6}
	if len(plan.CheckSizes) != len(want) {
		t.Fatalf("CheckSizes = %v, want %v", plan.CheckSizes, want)
	}
	for i := range want {
		if plan.CheckSizes[i] != want[i] {
			t.Fatalf("CheckSizes = %v, want %v", plan.CheckSizes, want)
		}
	}
	sum := 0
	for _, s := range plan.CheckSizes {
		sum += s
	}
	if sum != 48 {
		t.Errorf("check budget = %d, want 48", sum)
	}
}

func TestPlanLevels32(t *testing.T) {
	// The paper's smallest constructible graph: 32 total nodes →
	// 16 | 8 | 4+4 ("two final stages containing 4 nodes each ... using
	// the whole set of 8 left nodes").
	p := DefaultParams()
	p.TotalNodes = 32
	plan, err := PlanLevels(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 4, 4}
	if len(plan.CheckSizes) != len(want) {
		t.Fatalf("CheckSizes = %v, want %v", plan.CheckSizes, want)
	}
	for i := range want {
		if plan.CheckSizes[i] != want[i] {
			t.Fatalf("CheckSizes = %v, want %v", plan.CheckSizes, want)
		}
	}
}

func TestPlanLevelsErrors(t *testing.T) {
	p := DefaultParams()
	p.TotalNodes = 7
	if _, err := PlanLevels(p); err == nil {
		t.Error("odd TotalNodes accepted")
	}
	p.TotalNodes = 6
	if _, err := PlanLevels(p); err == nil {
		t.Error("tiny TotalNodes accepted")
	}
	// 20 total → 10 data → halving hits 5 (odd) before MinFinalLeft=2.
	p = DefaultParams()
	p.TotalNodes = 20
	p.MinFinalLeft = 2
	if _, err := PlanLevels(p); err == nil {
		t.Error("odd halving chain accepted")
	}
}

func TestGenerate96Structure(t *testing.T) {
	rng := rand.New(rand.NewPCG(2006, 1))
	g, st, err := Generate(DefaultParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts < 1 || st.Attempts != st.Discarded+1 {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if g.Total != 96 || g.Data != 48 || len(g.Levels) != 4 {
		t.Fatalf("structure: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The two final stages must share the 12 left nodes of level 2.
	l2, l3, l4 := g.Levels[1], g.Levels[2], g.Levels[3]
	if l3.LeftFirst != l2.RightFirst || l4.LeftFirst != l2.RightFirst {
		t.Errorf("final stages do not share level-2 rights: %+v", g.Levels)
	}
	if l3.LeftCount != 12 || l4.LeftCount != 12 {
		t.Errorf("final stage left counts: %+v", g.Levels)
	}
	// Average data degree should be near the paper's 3.6.
	if avg := g.AvgDataDegree(); math.Abs(avg-3.6) > 0.5 {
		t.Errorf("AvgDataDegree = %v, want ≈3.6", avg)
	}
	// Screened: no small closed sets in the data level.
	if fs := dataDefects(g, 3); len(fs) != 0 {
		t.Errorf("screened graph still has defects: %v", fs)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := Generate(DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgeCount() != b.EdgeCount() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", a.EdgeCount(), b.EdgeCount())
	}
	for r := a.Data; r < a.Total; r++ {
		la, lb := a.LeftNeighbors(r), b.LeftNeighbors(r)
		if len(la) != len(lb) {
			t.Fatalf("right %d degree differs", r)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("right %d neighbors differ: %v vs %v", r, la, lb)
			}
		}
	}
}

func TestGenerate32(t *testing.T) {
	p := DefaultParams()
	p.TotalNodes = 32
	g, _, err := Generate(p, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if g.Total != 32 || g.Data != 16 {
		t.Fatalf("structure: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateSurvivesAnySingleLoss(t *testing.T) {
	g, _, err := Generate(DefaultParams(), rand.New(rand.NewPCG(11, 4)))
	if err != nil {
		t.Fatal(err)
	}
	d := decode.New(g)
	for v := 0; v < g.Total; v++ {
		if !d.Recoverable([]int{v}) {
			t.Errorf("single loss of node %d unrecoverable", v)
		}
	}
}

func TestGenerateUnscreenedSkipsScreening(t *testing.T) {
	// Unscreened generation must produce a valid graph without the defect
	// gate (it may or may not contain defects — only validity is asserted).
	g, err := GenerateUnscreened(DefaultParams(), rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScreeningRejectsDefectiveGraphs(t *testing.T) {
	// Across many seeds, unscreened generation should eventually produce
	// at least one graph the screen rejects — demonstrating the gate does
	// real work (paper §3.2: "some of the graphs contained obvious
	// defects").
	rejected := 0
	for seed := uint64(0); seed < 60; seed++ {
		g, err := GenerateUnscreened(DefaultParams(), rand.New(rand.NewPCG(seed, 9)))
		if err != nil {
			t.Fatal(err)
		}
		if len(dataDefects(g, 3)) != 0 {
			rejected++
		}
	}
	t.Logf("defect screen rejected %d/60 unscreened graphs", rejected)
	// This is probabilistic but extremely stable: with 48 data nodes of
	// average degree 3.6 the chance of zero defective graphs in 60 draws
	// is negligible. If this ever flakes, the screen is broken.
	if rejected == 0 {
		t.Error("screen rejected nothing across 60 random graphs; detection likely broken")
	}
}

// Property: generation succeeds and yields structurally valid, screened
// graphs for a range of sizes and seeds.
func TestQuickGenerateValid(t *testing.T) {
	f := func(seed uint64, sizeSel uint8) bool {
		p := DefaultParams()
		p.TotalNodes = []int{32, 64, 96, 128}[int(sizeSel)%4]
		rng := rand.New(rand.NewPCG(seed, 100))
		g, _, err := Generate(p, rng)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		return len(dataDefects(g, 3)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
