package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestHeavyTailShape(t *testing.T) {
	d := HeavyTail(4)
	if d.MinDegree != 2 || len(d.Weights) != 4 {
		t.Fatalf("HeavyTail(4) = %+v", d)
	}
	// λ_i ∝ 1/(i-1): degrees 2,3,4,5 → weights 1, 1/2, 1/3, 1/4.
	want := []float64{1, 0.5, 1.0 / 3, 0.25}
	for i, w := range d.Weights {
		if math.Abs(w-want[i]) > 1e-12 {
			t.Errorf("weight[%d] = %v, want %v", i, w, want[i])
		}
	}
	if d.MaxDegree() != 5 {
		t.Errorf("MaxDegree = %d", d.MaxDegree())
	}
}

func TestPoissonRightShape(t *testing.T) {
	d := PoissonRight(3, 6)
	if d.MinDegree != 1 || len(d.Weights) != 6 {
		t.Fatalf("PoissonRight = %+v", d)
	}
	// ρ_i ∝ α^(i-1)/(i-1)!: 1, 3, 4.5, 4.5, 3.375, 2.025
	want := []float64{1, 3, 4.5, 4.5, 3.375, 2.025}
	for i, w := range d.Weights {
		if math.Abs(w-want[i]) > 1e-9 {
			t.Errorf("weight[%d] = %v, want %v", i, w, want[i])
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := map[string]func(){
		"HeavyTail(0)":        func() { HeavyTail(0) },
		"PoissonRight alpha":  func() { PoissonRight(0, 3) },
		"PoissonRight maxDeg": func() { PoissonRight(1, 0) },
		"Uniform(0)":          func() { Uniform(0) },
		"Shift below 1":       func() { Uniform(1).Shifted(-1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestShifted(t *testing.T) {
	d := HeavyTail(3).Shifted(1)
	if d.MinDegree != 3 || d.MaxDegree() != 5 {
		t.Errorf("Shifted: min=%d max=%d", d.MinDegree, d.MaxDegree())
	}
}

func TestDoubled(t *testing.T) {
	d := HeavyTail(3) // degrees 2,3,4
	dd := d.Doubled() // degrees 4,6,8
	if dd.MinDegree != 4 || dd.MaxDegree() != 8 {
		t.Fatalf("Doubled: min=%d max=%d", dd.MinDegree, dd.MaxDegree())
	}
	if dd.Weights[0] != d.Weights[0] || dd.Weights[2] != d.Weights[1] || dd.Weights[4] != d.Weights[2] {
		t.Errorf("Doubled weights = %v", dd.Weights)
	}
	if dd.Weights[1] != 0 || dd.Weights[3] != 0 {
		t.Errorf("Doubled odd-degree weights should be zero: %v", dd.Weights)
	}
}

func TestAvgNodeDegree(t *testing.T) {
	if got := Uniform(4).AvgNodeDegree(); math.Abs(got-4) > 1e-12 {
		t.Errorf("Uniform(4).AvgNodeDegree = %v", got)
	}
	// HeavyTail average node degree: Σλ / Σ(λ/i); for D=3 (degrees 2,3,4
	// weights 1, .5, 1/3): (11/6) / (1/2 + 1/6 + 1/12) = 1.8333/0.75 = 2.4444
	if got := HeavyTail(3).AvgNodeDegree(); math.Abs(got-2.444444444) > 1e-6 {
		t.Errorf("HeavyTail(3).AvgNodeDegree = %v", got)
	}
}

func TestSolveExactCounts(t *testing.T) {
	for _, nodes := range []int{1, 4, 12, 24, 48, 96, 500} {
		for _, d := range []Dist{HeavyTail(6), HeavyTail(12), PoissonRight(3, 9), Uniform(3)} {
			sol, err := Solve(d, nodes)
			if err != nil {
				t.Fatalf("Solve(%v, %d): %v", d, nodes, err)
			}
			if sol.Nodes != nodes || sum(sol.Counts) != nodes {
				t.Errorf("Solve(%v, %d) produced %d nodes", d, nodes, sum(sol.Counts))
			}
			if sol.Edges < nodes {
				t.Errorf("Solve produced %d edges for %d nodes", sol.Edges, nodes)
			}
		}
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(HeavyTail(3), 0); err == nil {
		t.Error("Solve with 0 nodes should fail")
	}
	if _, err := Solve(Dist{MinDegree: 2, Weights: []float64{0, 0}}, 5); err == nil {
		t.Error("Solve with all-zero weights should fail")
	}
	if _, err := Solve(Dist{MinDegree: 2, Weights: []float64{-1, 2}}, 5); err == nil {
		t.Error("Solve with negative weight should fail")
	}
}

func TestSolveDistributionShape(t *testing.T) {
	// For a reasonably large node count the realized node-count fractions
	// should follow λ_i/i (node perspective), heaviest at the low degrees.
	sol, err := Solve(HeavyTail(6), 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sol.Counts); i++ {
		if sol.Counts[i] > sol.Counts[i-1] {
			t.Errorf("heavy-tail node counts should decay: %v", sol.Counts)
		}
	}
	avg := float64(sol.Edges) / float64(sol.Nodes)
	if want := HeavyTail(6).AvgNodeDegree(); math.Abs(avg-want) > 0.1 {
		t.Errorf("realized avg degree %v, distribution says %v", avg, want)
	}
}

func TestSolutionDegrees(t *testing.T) {
	sol := Solution{MinDegree: 2, Counts: []int{2, 0, 1}, Nodes: 3, Edges: 8}
	degs := sol.Degrees()
	if len(degs) != 3 || degs[0] != 2 || degs[1] != 2 || degs[2] != 4 {
		t.Errorf("Degrees = %v", degs)
	}
}

func TestSolveEdgesExact(t *testing.T) {
	// 24 right nodes must absorb exactly 100 edges.
	sol, err := SolveEdgesMax(PoissonRight(3, 12), 24, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes != 24 || sol.Edges != 100 {
		t.Fatalf("SolveEdgesMax = %+v", sol)
	}
	total := 0
	for i, c := range sol.Counts {
		total += (sol.MinDegree + i) * c
	}
	if total != 100 {
		t.Errorf("degree sum = %d", total)
	}
	if sol.MinDegree < 1 {
		t.Errorf("MinDegree = %d", sol.MinDegree)
	}
}

func TestSolveEdgesTooFew(t *testing.T) {
	if _, err := SolveEdgesMax(PoissonRight(3, 12), 24, 23, 23); err == nil {
		t.Error("SolveEdgesMax with edges < nodes should fail")
	}
}

// Property: Solve always produces the requested node count exactly, with
// positive edge totals, for random distributions and sizes.
func TestQuickSolveExact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		nodes := 1 + rng.IntN(300)
		var d Dist
		switch rng.IntN(4) {
		case 0:
			d = HeavyTail(1 + rng.IntN(15))
		case 1:
			d = PoissonRight(0.5+3*rng.Float64(), 1+rng.IntN(12))
		case 2:
			d = Uniform(1 + rng.IntN(8))
		default:
			w := make([]float64, 1+rng.IntN(8))
			for i := range w {
				w[i] = rng.Float64()
			}
			w[rng.IntN(len(w))] = 1 // ensure some mass
			d = Dist{MinDegree: 1 + rng.IntN(4), Weights: w}
		}
		sol, err := Solve(d, nodes)
		if err != nil {
			return false
		}
		return sol.Nodes == nodes && sum(sol.Counts) == nodes && sol.Edges >= nodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SolveEdgesMax (capped at the edge total) hits both node and edge targets whenever feasible.
func TestQuickSolveEdgesExact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 6))
		nodes := 1 + rng.IntN(100)
		edges := nodes + rng.IntN(5*nodes)
		sol, err := SolveEdgesMax(PoissonRight(0.5+3*rng.Float64(), 1+rng.IntN(10)), nodes, edges, edges)
		if err != nil {
			return false
		}
		if sol.Nodes != nodes || sol.Edges != edges {
			return false
		}
		total, n := 0, 0
		for i, c := range sol.Counts {
			if c < 0 {
				return false
			}
			total += (sol.MinDegree + i) * c
			n += c
		}
		return total == edges && n == nodes && sol.MinDegree >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
