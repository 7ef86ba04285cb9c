package graph

import (
	"strings"
	"testing"
)

// tiny builds the running example used throughout the package tests:
// 4 data nodes, level 1 with 2 checks over them, level 2 with 1 check over
// the level-1 checks.
//
//	data 0..3 → checks 4,5 → check 6
func tiny(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	r1 := b.AddLevel(0, 4, 2)
	r2 := b.AddLevel(r1, 2, 1)
	g := b.Graph()
	g.SetNeighbors(r1, []int{0, 1})
	g.SetNeighbors(r1+1, []int{2, 3})
	g.SetNeighbors(r2, []int{4, 5})
	if err := g.Validate(); err != nil {
		t.Fatalf("tiny graph invalid: %v", err)
	}
	return g
}

func TestBuilderLayout(t *testing.T) {
	g := tiny(t)
	if g.Data != 4 || g.Total != 7 || len(g.Levels) != 2 {
		t.Fatalf("layout: %+v", g.Summary())
	}
	if g.Levels[0].RightFirst != 4 || g.Levels[1].RightFirst != 6 {
		t.Errorf("right ranges: %+v", g.Levels)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := map[string]func(){
		"zero data":       func() { NewBuilder(0) },
		"zero left count": func() { NewBuilder(4).AddLevel(0, 0, 1) },
		"bad left range":  func() { NewBuilder(4).AddLevel(0, 5, 1) },
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

func TestClassification(t *testing.T) {
	g := tiny(t)
	if !g.IsData(0) || g.IsData(4) || g.IsData(-1) {
		t.Error("IsData wrong")
	}
	if !g.IsRight(4) || !g.IsRight(6) || g.IsRight(3) || g.IsRight(7) {
		t.Error("IsRight wrong")
	}
	if g.LevelOfRight(4) != 0 || g.LevelOfRight(6) != 1 || g.LevelOfRight(2) != -1 {
		t.Error("LevelOfRight wrong")
	}
}

func TestAdjacency(t *testing.T) {
	g := tiny(t)
	if ln := g.LeftNeighbors(4); len(ln) != 2 || ln[0] != 0 || ln[1] != 1 {
		t.Errorf("LeftNeighbors(4) = %v", ln)
	}
	if p := g.Parents(0); len(p) != 1 || p[0] != 4 {
		t.Errorf("Parents(0) = %v", p)
	}
	if p := g.Parents(4); len(p) != 1 || p[0] != 6 {
		t.Errorf("Parents(4) = %v", p)
	}
	if g.Degree(0) != 1 || g.RightDegree(6) != 2 {
		t.Error("degrees wrong")
	}
	if !g.HasEdge(4, 0) || g.HasEdge(4, 2) {
		t.Error("HasEdge wrong")
	}
	if g.EdgeCount() != 6 {
		t.Errorf("EdgeCount = %d, want 6", g.EdgeCount())
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := tiny(t)
	g.AddEdge(4, 2)
	if !g.HasEdge(4, 2) || g.Degree(2) != 2 {
		t.Error("AddEdge failed")
	}
	g.RemoveEdge(4, 2)
	if g.HasEdge(4, 2) || g.Degree(2) != 1 {
		t.Error("RemoveEdge failed")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid after add/remove: %v", err)
	}
}

func TestEdgePanics(t *testing.T) {
	g := tiny(t)
	blank := func() *Graph { // tiny's levels, unwired
		b := NewBuilder(4)
		b.AddLevel(b.AddLevel(0, 4, 2), 2, 1)
		return b.Graph()
	}
	cases := map[string]func(){
		"duplicate edge":       func() { g.AddEdge(4, 0) },
		"left outside level":   func() { g.AddEdge(6, 0) },
		"not a right node":     func() { g.AddEdge(2, 0) },
		"remove missing edge":  func() { g.RemoveEdge(4, 3) },
		"rewire across levels": func() { g.RewireEdge(0, 4, 6) },
		"level duplicate edge": func() { blank().SetLevelNeighbors(0, []int32{1, 2, 3, 3}, []int{2, 2}) },
		"level left outside":   func() { blank().SetLevelNeighbors(0, []int32{0, 1, 2, 4}, []int{2, 2}) },
		"level degree sum":     func() { blank().SetLevelNeighbors(0, []int32{0, 1, 2}, []int{2, 2}) },
		"level already wired":  func() { g.SetLevelNeighbors(1, []int32{4, 5}, []int{2}) },
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

func TestRewireEdge(t *testing.T) {
	g := tiny(t)
	g.RewireEdge(0, 4, 5) // move data 0 from check 4 to check 5
	if g.HasEdge(4, 0) || !g.HasEdge(5, 0) {
		t.Error("RewireEdge did not move edge")
	}
	if p := g.Parents(0); len(p) != 1 || p[0] != 5 {
		t.Errorf("Parents(0) after rewire = %v", p)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid after rewire: %v", err)
	}
}

func TestCloneIsolation(t *testing.T) {
	g := tiny(t)
	c := g.Clone()
	c.AddEdge(4, 2)
	if g.HasEdge(4, 2) {
		t.Error("mutating clone changed original")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestValidateCatchesUncoveredData(t *testing.T) {
	b := NewBuilder(4)
	r1 := b.AddLevel(0, 4, 2)
	g := b.Graph()
	g.SetNeighbors(r1, []int{0, 1})
	g.SetNeighbors(r1+1, []int{1, 2}) // data node 3 uncovered
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "no parity coverage") {
		t.Errorf("Validate = %v, want coverage error", err)
	}
}

func TestValidateCatchesEmptyRight(t *testing.T) {
	b := NewBuilder(2)
	b.AddLevel(0, 2, 1)
	g := b.Graph()
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "no left neighbors") {
		t.Errorf("Validate = %v, want empty-right error", err)
	}
}

// TestValidateCatchesCorruptAdjacency corrupts tiny's adjacency behind the
// mutators' backs, one way per case, and expects the rejection that names
// the corruption (and the edge).
func TestValidateCatchesCorruptAdjacency(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(g *Graph)
		want    string
	}{
		{"duplicate edge", func(g *Graph) {
			g.lefts[4] = []int32{0, 1, 0} // not adjacent in the list
		}, "duplicate edge (4,0)"},
		{"left outside level", func(g *Graph) {
			g.lefts[6] = []int32{4, 5, 0} // level 1's left range is [4,6)
			g.parents[0] = []int32{4, 6}
		}, "edge (6,0) outside level 1 left range"},
		{"left is the check itself", func(g *Graph) {
			g.lefts[6] = []int32{4, 5, 6}
			g.parents[6] = []int32{6}
		}, "edge (6,6) outside level 1 left range"},
		{"reverse index missing", func(g *Graph) {
			g.parents[1] = nil
		}, "reverse index missing (4,1)"},
		{"reverse index missing one of two", func(g *Graph) {
			g.lefts[5] = []int32{2, 3, 1} // node 1 now under checks 4 and 5
		}, "reverse index missing (5,1)"},
		{"phantom reverse edge", func(g *Graph) {
			g.parents[2] = []int32{5, 4}
		}, "phantom edge (4,2)"},
		{"reverse entry swapped for another check", func(g *Graph) {
			g.parents[1] = []int32{5}
		}, "phantom edge (5,1)"},
		{"reverse entry listed twice", func(g *Graph) {
			g.parents[0] = []int32{4, 4}
		}, "phantom edge (4,0)"},
		{"reverse entry names no node", func(g *Graph) {
			g.parents[0] = []int32{4, 99}
		}, "phantom edge (99,0)"},
		{"reverse entry names a data node", func(g *Graph) {
			g.parents[3] = []int32{5, 0}
		}, "phantom edge (0,3)"},
		{"levels leave a gap", func(g *Graph) {
			g.Levels[1].RightFirst = 7
		}, "level 1 right range starts at 7, want 6"},
		{"negative right count", func(g *Graph) {
			g.Levels = append(g.Levels, Level{LeftFirst: 4, LeftCount: 2, RightFirst: 7, RightCount: -1})
			g.Total = 6
		}, "level 2 has right count -1"},
		{"levels short of total", func(g *Graph) {
			g.Levels = g.Levels[:1]
		}, "levels cover 6 nodes, total is 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tiny(t)
			tc.corrupt(g)
			err := g.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestSetNeighborsReplaces(t *testing.T) {
	g := tiny(t)
	g.SetNeighbors(4, []int{2, 3})
	if g.HasEdge(4, 0) || !g.HasEdge(4, 2) {
		t.Error("SetNeighbors did not replace list")
	}
	// Old parents must be cleaned up.
	if len(g.Parents(0)) != 0 {
		t.Errorf("stale parent on node 0: %v", g.Parents(0))
	}
}

func TestSummaryAndString(t *testing.T) {
	g := tiny(t)
	g.Name = "tiny"
	s := g.Summary()
	if s.Data != 4 || s.Total != 7 || s.Levels != 2 || s.Edges != 6 {
		t.Errorf("Summary = %+v", s)
	}
	if s.MinDataDegree != 1 || s.MaxDataDegree != 1 {
		t.Errorf("data degrees = %d..%d", s.MinDataDegree, s.MaxDataDegree)
	}
	if want := 1.0; s.AvgDataDegree != want {
		t.Errorf("AvgDataDegree = %v", s.AvgDataDegree)
	}
	if str := g.String(); !strings.Contains(str, "tiny") {
		t.Errorf("String = %q", str)
	}
}

func TestSharedLeftRangeLevels(t *testing.T) {
	// Typhoon final-stage arrangement: two levels sharing the same left
	// range (paper §3.1).
	b := NewBuilder(8)
	r1 := b.AddLevel(0, 8, 4)
	rA := b.AddLevel(r1, 4, 2)
	rB := b.AddLevel(r1, 4, 2) // same left range as previous level
	g := b.Graph()
	for i := 0; i < 4; i++ {
		g.SetNeighbors(r1+i, []int{2 * i, 2*i + 1})
	}
	g.SetNeighbors(rA, []int{r1, r1 + 1})
	g.SetNeighbors(rA+1, []int{r1 + 2, r1 + 3})
	g.SetNeighbors(rB, []int{r1, r1 + 2})
	g.SetNeighbors(rB+1, []int{r1 + 1, r1 + 3})
	if err := g.Validate(); err != nil {
		t.Fatalf("shared-left graph invalid: %v", err)
	}
	// Each level-1 check is now protected by two final-stage checks.
	for i := 0; i < 4; i++ {
		if got := g.Degree(r1 + i); got != 2 {
			t.Errorf("check %d degree = %d, want 2", r1+i, got)
		}
	}
}

func BenchmarkRewireEdge(b *testing.B) {
	bld := NewBuilder(4)
	r1 := bld.AddLevel(0, 4, 2)
	g := bld.Graph()
	g.SetNeighbors(r1, []int{0, 1})
	g.SetNeighbors(r1+1, []int{2, 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RewireEdge(0, r1, r1+1)
		g.RewireEdge(0, r1+1, r1)
	}
}
