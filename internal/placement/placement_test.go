package placement

import (
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/graphml"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIdentityRoundTrip(t *testing.T) {
	p := NewIdentity(96)
	if p.Nodes() != 96 {
		t.Fatalf("Nodes() = %d", p.Nodes())
	}
	for v := 0; v < 96; v++ {
		if p.Device(v) != v || p.Node(v) != v {
			t.Fatalf("identity broken at %d", v)
		}
	}
}

func TestNewMappedValidates(t *testing.T) {
	if _, err := NewMapped("bad", []int{0, 0, 1}); err == nil {
		t.Error("duplicate device accepted")
	}
	if _, err := NewMapped("bad", []int{0, 3, 1}); err == nil {
		t.Error("out-of-range device accepted")
	}
	p, err := NewMapped("rev", []int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if p.Node(p.Device(v)) != v {
			t.Fatalf("not a bijection at %d", v)
		}
	}
}

func TestDegreeAwareIsPermutation(t *testing.T) {
	g := testGraph(t)
	p := DegreeAware(g, DefaultGroupSize)
	seen := make([]bool, g.Total)
	for v := 0; v < g.Total; v++ {
		d := p.Device(v)
		if d < 0 || d >= g.Total || seen[d] {
			t.Fatalf("node %d -> device %d is not a permutation", v, d)
		}
		seen[d] = true
		if p.Node(d) != v {
			t.Fatalf("Node(Device(%d)) = %d", v, p.Node(d))
		}
	}
}

func TestDegreeAwareDeterministic(t *testing.T) {
	g := testGraph(t)
	a := DegreeAware(g, DefaultGroupSize)
	b := DegreeAware(g, DefaultGroupSize)
	for v := 0; v < g.Total; v++ {
		if a.Device(v) != b.Device(v) {
			t.Fatalf("placement differs at node %d: %d vs %d", v, a.Device(v), b.Device(v))
		}
	}
}

// TestDegreeAwareReducesRemoteReads is the policy's reason to exist: on a
// profiled Tornado cascade — a generated one and each shipped certified
// graph — packing check families into device groups must reduce the mean
// remote reads of a single-loss repair versus the identity scatter.
// Locality is the whole game: the same families exist under any placement,
// so total reads move only through the cost model's tie-break.
func TestDegreeAwareReducesRemoteReads(t *testing.T) {
	shipped := func(name string) func(*testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph {
			g, err := graphml.ReadFile("../../precompiled/" + name + ".graphml")
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	for _, tc := range []struct {
		name  string
		graph func(*testing.T) *graph.Graph
		// boundTotal: total reads may grow by at most one per loss (the
		// min-remote-then-min-reads tie-break prefers a larger family when
		// it is fully local). Not asserted on shipped graphs: tornado96-3
		// trades 1.08.
		boundTotal bool
	}{
		{"generated", testGraph, true},
		{"tornado96-1", shipped("tornado96-1"), false},
		{"tornado96-2", shipped("tornado96-2"), false},
		{"tornado96-3", shipped("tornado96-3"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph(t)
			id := SingleLossStats(g, NewIdentity(g.Total), DefaultGroupSize)
			da := SingleLossStats(g, DegreeAware(g, DefaultGroupSize), DefaultGroupSize)
			t.Logf("identity: %.2f reads (%.2f remote); degree-aware: %.2f reads (%.2f remote)",
				id.MeanRepairReads, id.MeanRemoteReads, da.MeanRepairReads, da.MeanRemoteReads)
			if da.MeanRemoteReads >= id.MeanRemoteReads {
				t.Errorf("degree-aware remote reads %.3f did not improve on identity %.3f",
					da.MeanRemoteReads, id.MeanRemoteReads)
			}
			if tc.boundTotal && da.MeanRepairReads > id.MeanRepairReads+1 {
				t.Errorf("degree-aware total reads %.3f ballooned vs identity %.3f",
					da.MeanRepairReads, id.MeanRepairReads)
			}
		})
	}
}

func TestSingleLossStatsIdentityBounds(t *testing.T) {
	g := testGraph(t)
	s := SingleLossStats(g, NewIdentity(g.Total), DefaultGroupSize)
	if s.MeanRepairReads <= 0 || s.MeanRemoteReads < 0 || s.MeanRemoteReads > s.MeanRepairReads {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.MaxRepairReads <= 0 || s.DataMeanRepairReads <= 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
}

func TestGroup(t *testing.T) {
	if Group(0, 12) != 0 || Group(11, 12) != 0 || Group(12, 12) != 1 {
		t.Error("Group boundaries wrong")
	}
	if Group(25, 0) != 25/DefaultGroupSize {
		t.Error("Group must default the group size")
	}
}
