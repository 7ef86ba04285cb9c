package retrieval

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
)

// referencePlanOrdered is the plain reverse-delete loop — every probe a full
// Decoder peel of everything outside the plan, no kernel, no structural
// shortcut — kept as the differential oracle for Planner. Known nodes (nil:
// none) are selected throughout, never candidates and never listed.
func referencePlanOrdered(g *graph.Graph, available, known []bool, cost CostFunc, ord ordering) ([]int, float64, error) {
	if cost == nil {
		cost = UnitCost
	}
	d := decode.New(g)
	recoverableWith := func(selected []bool) bool {
		var erased []int
		for v := 0; v < g.Total; v++ {
			if !selected[v] {
				erased = append(erased, v)
			}
		}
		return d.Recoverable(erased)
	}
	selected := make([]bool, g.Total)
	var cands []int
	isKnown := func(v int) bool { return known != nil && known[v] }
	for v := 0; v < g.Total; v++ {
		switch {
		case isKnown(v):
			selected[v] = true
		case available[v] && !math.IsInf(cost(v), 1):
			selected[v] = true
			cands = append(cands, v)
		}
	}
	if !recoverableWith(selected) {
		return nil, 0, ErrInsufficient
	}
	slices.SortStableFunc(cands, func(a, b int) int {
		ca, cb := cost(a), cost(b)
		switch {
		case ord == orderDeep:
			return b - a
		case ca > cb:
			return -1
		case ca < cb:
			return 1
		case ord == orderCostShallow:
			return a - b
		default:
			return b - a
		}
	})
	for _, v := range cands {
		selected[v] = false
		if !recoverableWith(selected) {
			selected[v] = true
		}
	}
	var plan []int
	total := 0.0
	for v := 0; v < g.Total; v++ {
		if selected[v] && !isKnown(v) {
			plan = append(plan, v)
			total += cost(v)
		}
	}
	return plan, total, nil
}

func referencePlan(g *graph.Graph, available, known []bool, cost CostFunc) ([]int, float64, error) {
	return referencePlanOrdered(g, available, known, cost, orderCostDeep)
}

// referencePlanEconomic is PlanEconomic's selection rule over the oracle's
// plans: fewest blocks, then lowest price, first ordering winning ties, no
// alternative tried once a plan sits on the data-block floor — the data nodes
// not known.
func referencePlanEconomic(g *graph.Graph, available, known []bool, cost CostFunc) ([]int, PlanCost, error) {
	floor := g.Data
	for v := 0; known != nil && v < g.Data; v++ {
		if known[v] {
			floor--
		}
	}
	var best []int
	var bestCost PlanCost
	for i, ord := range [...]ordering{orderCostDeep, orderDeep, orderCostShallow} {
		plan, total, err := referencePlanOrdered(g, available, known, cost, ord)
		if err != nil {
			return nil, PlanCost{}, err
		}
		c := PlanCost{Blocks: len(plan), Surplus: len(plan) - floor, Cost: total}
		if i == 0 || c.Blocks < bestCost.Blocks || (c.Blocks == bestCost.Blocks && c.Cost < bestCost.Cost) {
			best, bestCost = plan, c
		}
		if bestCost.Surplus <= 0 {
			break
		}
	}
	return best, bestCost, nil
}

// oracleGraphs are the graphs the planner is checked on: the generated
// 96-node cascade and the three shipped ones.
func oracleGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	gs := []*graph.Graph{tornado96(t)}
	for i := 1; i <= 3; i++ {
		g, err := graphml.ReadFile(fmt.Sprintf("../../precompiled/tornado96-%d.graphml", i))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// oracleCosts draws one cost vector of the given kind: uniform, two-tier (a
// MAID shelf: spun-up drives cost 1, spun-down ones a spin-up), random, or
// random with a quarter of the nodes forbidden.
func oracleCosts(kind int, n int, rng *rand.Rand) CostFunc {
	costs := make([]float64, n)
	for v := range costs {
		switch kind % 4 {
		case 0:
			costs[v] = 1
		case 1:
			costs[v] = 1 + 10*float64(rng.IntN(2))
		case 2:
			costs[v] = rng.Float64() * 5
		default:
			costs[v] = float64(1 + rng.IntN(4))
			if rng.IntN(4) == 0 {
				costs[v] = math.Inf(1)
			}
		}
	}
	return func(v int) float64 { return costs[v] }
}

// checkAgainstOracle compares Plan and PlanEconomic on p with the oracle for
// one availability mask, known mask (nil: none) and cost function.
func checkAgainstOracle(t testing.TB, p *Planner, g *graph.Graph, avail, known []bool, cost CostFunc) {
	t.Helper()
	p.Known(known)
	want, wantTotal, wantErr := referencePlan(g, avail, known, cost)
	got, gotTotal, gotErr := p.Plan(avail, cost)
	if gotErr != wantErr || gotTotal != wantTotal || !slices.Equal(got, want) {
		t.Fatalf("Plan = %v (%v, %v), reverse-delete oracle = %v (%v, %v); avail %v, known %v",
			got, gotTotal, gotErr, want, wantTotal, wantErr, avail, known)
	}
	wantE, wantCost, wantErr := referencePlanEconomic(g, avail, known, cost)
	gotE, gotCost, gotErr := p.PlanEconomic(avail, cost)
	if gotErr != wantErr || gotCost != wantCost || !slices.Equal(gotE, wantE) {
		t.Fatalf("PlanEconomic = %v (%+v, %v), reverse-delete oracle = %v (%+v, %v); avail %v, known %v",
			gotE, gotCost, gotErr, wantE, wantCost, wantErr, avail, known)
	}
}

// paddingMask is the known mask of a stripe whose payload fills live data
// blocks: the data nodes from live on.
func paddingMask(g *graph.Graph, live int) []bool {
	known := make([]bool, g.Total)
	for v := live; v < g.Data; v++ {
		known[v] = true
	}
	return known
}

// TestPlansMatchReverseDelete is the property behind the planner's
// structural shortcuts: for every availability mask, known mask and cost
// function, Plan and PlanEconomic return the plain reverse-delete loop's
// plan, cost and PlanCost, and ErrInsufficient exactly when it does. Every
// other trial is a short stripe: the data nodes past a random live count are
// known. One Planner serves every trial of a graph, feasible or not, so a
// kernel left dirty by one call shows in the next.
func TestPlansMatchReverseDelete(t *testing.T) {
	for gi, g := range oracleGraphs(t) {
		p := NewPlanner(g)
		rng := rand.New(rand.NewPCG(600, uint64(gi)))
		insufficient := 0
		for trial := 0; trial < 120; trial++ {
			// Loss rates from none (the healthy stripe) to past the
			// failure point; every third trial loses data nodes only.
			loss := []float64{0, 0.02, 0.05, 0.1, 0.25, 0.45}[trial%6]
			avail := make([]bool, g.Total)
			for v := range avail {
				avail[v] = rng.Float64() >= loss || (trial%3 == 0 && v >= g.Data)
			}
			cost := oracleCosts(trial/6, g.Total, rng)
			var known []bool
			if trial%2 == 1 {
				known = paddingMask(g, rng.IntN(g.Data+1))
			}
			if _, _, err := referencePlan(g, avail, known, cost); err != nil {
				insufficient++
			}
			checkAgainstOracle(t, p, g, avail, known, cost)
		}
		if insufficient == 0 || insufficient == 120 {
			t.Errorf("graph %d: %d of 120 trials insufficient; both outcomes must be exercised", gi, insufficient)
		}
	}
}

// FuzzPlanMatchesReverseDelete is the randomized arm of
// TestPlansMatchReverseDelete: mask bit v set means node v is unavailable,
// kind and seed pick the cost vector, and the same Planner then plans the
// byte-rotated mask, which must match too, and the rotated mask again as a
// short stripe, its data nodes from seed mod (Data+1) on known.
func FuzzPlanMatchesReverseDelete(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(1), []byte{})
	f.Add(uint8(1), uint8(1), uint64(2), []byte{0x21, 0, 0x02, 0, 0x02})
	f.Add(uint8(2), uint8(2), uint64(3), []byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff})
	f.Add(uint8(3), uint8(3), uint64(4), []byte{0x0f, 0xf0, 0x0f, 0xf0, 0x0f, 0xf0, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11})
	graphs := oracleGraphs(f)
	f.Fuzz(func(t *testing.T, gi, kind uint8, seed uint64, mask []byte) {
		g := graphs[int(gi)%len(graphs)]
		p := NewPlanner(g)
		rng := rand.New(rand.NewPCG(seed, 7))
		for round := 0; round < 2; round++ {
			avail := make([]bool, g.Total)
			for v := range avail {
				i := v/8 + round
				avail[v] = i >= len(mask) || mask[i]&(1<<(v%8)) == 0
			}
			checkAgainstOracle(t, p, g, avail, nil, oracleCosts(int(kind)+round, g.Total, rng))
			if round == 1 {
				known := paddingMask(g, int(seed%uint64(g.Data+1)))
				checkAgainstOracle(t, p, g, avail, known, oracleCosts(int(kind)+round, g.Total, rng))
			}
		}
	})
}
