package retrieval

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/codec"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
)

func tornado96(t testing.TB) *graph.Graph {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(31, 7)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allAvailable(n int) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = true
	}
	return a
}

func TestPlanAllAvailableSelectsOnlyDataNodes(t *testing.T) {
	g := tornado96(t)
	plan, total, err := Plan(g, allAvailable(g.Total), UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	// With every block available the cheapest plan is exactly the data
	// blocks: nothing needs reconstruction.
	if len(plan) != g.Data {
		t.Errorf("plan size = %d, want %d", len(plan), g.Data)
	}
	if total != float64(g.Data) {
		t.Errorf("total = %v", total)
	}
	for _, v := range plan {
		if !g.IsData(v) {
			t.Errorf("plan contains check node %d despite full availability", v)
		}
	}
}

func TestPlanRoutesAroundMissingData(t *testing.T) {
	g := tornado96(t)
	avail := allAvailable(g.Total)
	avail[0] = false
	avail[1] = false
	plan, _, err := Plan(g, avail, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	// The plan must reconstruct: treating exactly the plan as present must
	// be decodable, and missing data nodes cannot appear.
	sel := make([]bool, g.Total)
	for _, v := range plan {
		if !avail[v] {
			t.Errorf("plan uses unavailable node %d", v)
		}
		sel[v] = true
	}
	d := decode.New(g)
	var erased []int
	for v := 0; v < g.Total; v++ {
		if !sel[v] {
			erased = append(erased, v)
		}
	}
	if !d.Recoverable(erased) {
		t.Error("plan does not reconstruct the stripe")
	}
	// It should not read everything: 96 available minus a handful.
	if len(plan) >= g.Total-2 {
		t.Errorf("plan reads %d blocks — no guidance at all", len(plan))
	}
}

func TestPlanMinimality(t *testing.T) {
	g := tornado96(t)
	avail := allAvailable(g.Total)
	avail[5] = false
	plan, _, err := Plan(g, avail, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse-delete guarantees 1-minimality: removing any single element
	// must break reconstruction.
	d := decode.New(g)
	sel := make([]bool, g.Total)
	for _, v := range plan {
		sel[v] = true
	}
	for _, v := range plan {
		sel[v] = false
		var erased []int
		for u := 0; u < g.Total; u++ {
			if !sel[u] {
				erased = append(erased, u)
			}
		}
		if d.Recoverable(erased) {
			t.Errorf("plan element %d is redundant", v)
		}
		sel[v] = true
	}
}

func TestPlanRespectsCosts(t *testing.T) {
	g := tornado96(t)
	avail := allAvailable(g.Total)
	avail[0] = false // force reconstruction through checks
	// Make one specific check prohibitively expensive; the plan should
	// avoid it if any alternative exists.
	expensive := int(g.Parents(0)[0])
	cost := func(v int) float64 {
		if v == expensive {
			return 1000
		}
		return 1
	}
	plan, total, err := Plan(g, avail, cost)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range plan {
		if v == expensive && total >= 1000 {
			// Only acceptable if unavoidable; with degree >= 2 there is an
			// alternative check, so this should not happen.
			t.Errorf("plan used the expensive check %d", expensive)
		}
	}
}

func TestPlanForbiddenNodes(t *testing.T) {
	g := tornado96(t)
	avail := allAvailable(g.Total)
	cost := func(v int) float64 {
		if g.IsData(v) && v < 6 {
			return math.Inf(1) // forbid a handful of data nodes
		}
		return 1
	}
	plan, _, err := Plan(g, avail, cost)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range plan {
		if g.IsData(v) && v < 6 {
			t.Errorf("plan used forbidden node %d", v)
		}
	}
}

func TestPlanInsufficient(t *testing.T) {
	g := tornado96(t)
	avail := make([]bool, g.Total) // nothing available
	if _, _, err := Plan(g, avail, UnitCost); !errors.Is(err, ErrInsufficient) {
		t.Errorf("err = %v, want ErrInsufficient", err)
	}
	if _, _, err := Plan(g, make([]bool, 5), UnitCost); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestPlanNilCostDefaultsToUnit(t *testing.T) {
	g := tornado96(t)
	plan, total, err := Plan(g, allAvailable(g.Total), nil)
	if err != nil {
		t.Fatal(err)
	}
	if total != float64(len(plan)) {
		t.Errorf("unit-cost total = %v for %d blocks", total, len(plan))
	}
}

// End-to-end: execute a plan against a real codec stripe and verify the
// payload comes back.
func TestPlanDrivesCodecDecode(t *testing.T) {
	g := tornado96(t)
	c, err := codec.New(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, c.Capacity())
	rng := rand.New(rand.NewPCG(8, 8))
	for i := range payload {
		payload[i] = byte(rng.IntN(256))
	}
	blocks, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	avail := allAvailable(g.Total)
	for _, v := range []int{0, 1, 2, 60} {
		avail[v] = false
	}
	plan, _, err := Plan(g, avail, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	// Fetch only the planned blocks.
	fetched := make([][]byte, g.Total)
	for _, v := range plan {
		fetched[v] = blocks[v]
	}
	got, err := c.Decode(fetched, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatal("payload mismatch after planned retrieval")
		}
	}
}

// TestPlannerMatchesReference drives one reused Planner and the
// decoder-based reference across random availability vectors and cost
// surfaces; plans must be identical element for element.
func TestPlannerMatchesReference(t *testing.T) {
	g := tornado96(t)
	p := NewPlanner(g)
	rng := rand.New(rand.NewPCG(400, 1))
	for trial := 0; trial < 60; trial++ {
		avail := make([]bool, g.Total)
		for v := range avail {
			avail[v] = rng.Float64() > 0.25
		}
		costs := make([]float64, g.Total)
		for v := range costs {
			switch rng.IntN(4) {
			case 0:
				costs[v] = 1
			case 1:
				costs[v] = float64(1 + rng.IntN(10))
			case 2:
				costs[v] = rng.Float64() * 5
			default:
				costs[v] = math.Inf(1)
			}
		}
		cost := func(v int) float64 { return costs[v] }
		got, gotTotal, gotErr := p.Plan(avail, cost)
		want, wantTotal, wantErr := referencePlan(g, avail, nil, cost)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err %v vs reference %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !slices.Equal(got, want) || gotTotal != wantTotal {
			t.Fatalf("trial %d: plan %v (%v) vs reference %v (%v)", trial, got, gotTotal, want, wantTotal)
		}
	}
}

// TestPlannerReuseMatchesFresh: a Planner's Nth call equals a fresh
// Planner's — the kernel unwinds completely between calls, and PlanEconomic
// hands back its stored answer only for the prices and known mask it was
// computed from.
func TestPlannerReuseMatchesFresh(t *testing.T) {
	g := tornado96(t)
	p := NewPlanner(g)
	rng := rand.New(rand.NewPCG(401, 1))
	for trial := 0; trial < 30; trial++ {
		avail := make([]bool, g.Total)
		for v := range avail {
			avail[v] = rng.Float64() > 0.3
		}
		got, gotTotal, gotErr := p.Plan(avail, nil)
		want, wantTotal, wantErr := NewPlanner(g).Plan(avail, nil)
		if (gotErr == nil) != (wantErr == nil) || gotTotal != wantTotal || !slices.Equal(got, want) {
			t.Fatalf("trial %d: reused planner diverged: %v (%v, %v) vs %v (%v, %v)",
				trial, got, gotTotal, gotErr, want, wantTotal, wantErr)
		}
	}

	// The PlanEconomic leg: a scripted sequence, then a seeded random walk
	// over the same inputs, some steps preceded by a Plan call on another.
	type input struct {
		name   string
		avail  []bool
		prices []float64
		known  []bool
	}
	degraded := func(name string, lost ...int) input {
		in := input{name, allAvailable(g.Total), make([]float64, g.Total), nil}
		for v := range in.prices {
			in.prices[v] = float64(1 + rng.IntN(3))
		}
		for _, v := range lost {
			in.avail[v] = false
		}
		return in
	}
	a := degraded("A", 0, 5, 17, 33)
	plan, _, err := NewPlanner(g).PlanEconomic(a.avail, func(v int) float64 { return a.prices[v] })
	if err != nil {
		t.Fatal(err)
	}
	repriced := input{"A, one planned node repriced", a.avail, slices.Clone(a.prices), nil}
	repriced.prices[plan[0]] = 7
	shrunk := input{"A's prices, one more data node lost", slices.Clone(a.avail), a.prices, nil}
	shrunk.avail[plan[0]] = false
	nan := input{"A, a planned data node priced NaN", a.avail, slices.Clone(a.prices), nil}
	nan.prices[plan[1]] = math.NaN()
	short := input{"nothing available", make([]bool, g.Total), a.prices, nil}
	healthy := input{"healthy", allAvailable(g.Total), a.prices, nil}
	b := degraded("B", 2, 3, 40, 41, 47)
	// Short stripes: A's damage with the data nodes from 20 on known (node 33
	// is lost and known), the same padding one block longer, and every data
	// node known.
	padded := input{"A, data from 20 on known", a.avail, a.prices, paddingMask(g, 20)}
	padded21 := input{"A, data from 21 on known", a.avail, a.prices, paddingMask(g, 21)}
	empty := input{"A, all data known", a.avail, a.prices, paddingMask(g, 0)}
	inputs := []input{a, b, repriced, shrunk, nan, short, healthy, padded, padded21, empty}

	seq := []input{a, a, b, a, repriced, a, repriced, repriced, shrunk, a, shrunk,
		a, short, a, short, short, a, nan, nan, a, nan, healthy, healthy, a,
		padded, padded, a, padded, padded21, padded, empty, empty, padded, a}
	scripted := len(seq)
	for range 60 {
		seq = append(seq, inputs[rng.IntN(len(inputs))])
	}
	samePC := func(x, y PlanCost) bool {
		return x.Blocks == y.Blocks && x.Surplus == y.Surplus && math.Float64bits(x.Cost) == math.Float64bits(y.Cost)
	}
	for i, in := range seq {
		if i >= scripted && rng.IntN(3) == 0 {
			other := inputs[rng.IntN(len(inputs))]
			p.Known(other.known)
			p.Plan(other.avail, func(v int) float64 { return other.prices[v] })
		}
		cost := func(v int) float64 { return in.prices[v] }
		p.Known(in.known)
		got, gotCost, gotErr := p.PlanEconomic(in.avail, cost)
		fresh := NewPlanner(g)
		fresh.Known(in.known)
		want, wantCost, wantErr := fresh.PlanEconomic(in.avail, cost)
		if !errors.Is(gotErr, wantErr) || !samePC(gotCost, wantCost) || !slices.Equal(got, want) {
			t.Fatalf("call %d (%s): reused PlanEconomic diverged: %v (%+v, %v) vs fresh %v (%+v, %v)",
				i, in.name, got, gotCost, gotErr, want, wantCost, wantErr)
		}
	}
}

// BenchmarkPlannerSteadyState is the archive stripe path's planning cost:
// one reused Planner, all nodes available. Must not allocate.
func BenchmarkPlannerSteadyState(b *testing.B) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		b.Fatal(err)
	}
	p := NewPlanner(g)
	avail := make([]bool, g.Total)
	for v := range avail {
		avail[v] = true
	}
	if _, _, err := p.Plan(avail, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Plan(avail, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// fourLost returns two availability vectors of tornado96, each with a
// different four data nodes lost.
func fourLost(g *graph.Graph) [2][]bool {
	perm := rand.New(rand.NewPCG(96, 4)).Perm(g.Data)
	var avail [2][]bool
	for i := range avail {
		avail[i] = allAvailable(g.Total)
		for _, v := range perm[4*i : 4*i+4] {
			avail[i][v] = false
		}
	}
	return avail
}

// BenchmarkPlanEconomicDegraded is a cold degraded plan, the decode kernel's
// one production workload: one reused Planner on tornado96, unit cost, the
// calls alternating between two four-data-node losses so that none is
// answered from the stored plan. The first ordering already reads no more
// blocks than the data floor, so one reverse-delete runs — at most one
// EraseOne/Eval probe per candidate. Must not allocate.
func BenchmarkPlanEconomicDegraded(b *testing.B) {
	g := tornado96(b)
	p := NewPlanner(g)
	avail := fourLost(g)
	for _, a := range avail {
		if _, cost, err := p.PlanEconomic(a, UnitCost); err != nil || cost.Surplus != 0 {
			b.Fatalf("PlanEconomic = %+v, %v; want a plan at the data floor", cost, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.PlanEconomic(avail[i%2], UnitCost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanEconomicRepeat is what every stripe after the first of a
// degraded read pays: the same four data nodes lost at the same prices, so
// each call is answered from the stored plan after one scan of the prices.
// Must not allocate.
func BenchmarkPlanEconomicRepeat(b *testing.B) {
	g := tornado96(b)
	p := NewPlanner(g)
	avail := fourLost(g)[0]
	if _, _, err := p.PlanEconomic(avail, UnitCost); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.PlanEconomic(avail, UnitCost); err != nil {
			b.Fatal(err)
		}
	}
}
