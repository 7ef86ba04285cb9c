package defect

import (
	"testing"

	"tornado/internal/decode"
	"tornado/internal/graph"
)

// pairDefect reproduces the paper's first §3.2 example: two left nodes with
// identical right sets.
func pairDefect(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	r := b.AddLevel(0, 6, 7)
	g := b.Graph()
	g.SetNeighbors(r, []int{0, 1})
	g.SetNeighbors(r+1, []int{0, 1}) // defect: {0,1} sealed by {r, r+1}
	g.SetNeighbors(r+2, []int{2, 3, 4, 5})
	// Individual mirrors keep pairs of 2..5 from being closed sets too.
	g.SetNeighbors(r+3, []int{2})
	g.SetNeighbors(r+4, []int{3})
	g.SetNeighbors(r+5, []int{4})
	g.SetNeighbors(r+6, []int{5})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// tripleDefect reproduces the paper's second §3.2 example: three left nodes
// relying on a closed set of right nodes, pairwise overlapping:
//
//	6  [48, 51, 57]
//	28 [57, 66, 68]
//	42 [48, 51, 66, 68]
//
// scaled down to left nodes 0,1,2 and rights rA..rE.
func tripleDefect(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	r := b.AddLevel(0, 6, 9)
	g := b.Graph()
	rA, rB, rC, rD, rE, rF := r, r+1, r+2, r+3, r+4, r+5
	// node 0 ~ paper 6; node 1 ~ paper 28; node 2 ~ paper 42
	g.SetNeighbors(rA, []int{0, 2})    // 48
	g.SetNeighbors(rB, []int{0, 2})    // 51
	g.SetNeighbors(rC, []int{0, 1})    // 57
	g.SetNeighbors(rD, []int{1, 2})    // 66
	g.SetNeighbors(rE, []int{1, 2})    // 68
	g.SetNeighbors(rF, []int{3, 4, 5}) // unrelated coverage
	// Individual mirrors keep pairs of 3..5 from being closed sets too.
	g.SetNeighbors(r+6, []int{3})
	g.SetNeighbors(r+7, []int{4})
	g.SetNeighbors(r+8, []int{5})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// clean returns a graph whose data level has no closed set up to size 3:
// a mirrored pair structure with an extra global check.
func clean(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	r := b.AddLevel(0, 4, 5)
	g := b.Graph()
	g.SetNeighbors(r, []int{0})
	g.SetNeighbors(r+1, []int{1})
	g.SetNeighbors(r+2, []int{2})
	g.SetNeighbors(r+3, []int{3})
	g.SetNeighbors(r+4, []int{0, 1, 2, 3})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIsClosedSetPair(t *testing.T) {
	g := pairDefect(t)
	rights, ok := IsClosedSet(g, []int{0, 1})
	if !ok {
		t.Fatal("pair defect not detected")
	}
	if len(rights) != 2 || rights[0] != 6 || rights[1] != 7 {
		t.Errorf("sealing rights = %v, want [6 7]", rights)
	}
	if _, ok := IsClosedSet(g, []int{0, 2}); ok {
		t.Error("non-closed pair flagged")
	}
}

func TestIsClosedSetTriple(t *testing.T) {
	g := tripleDefect(t)
	if _, ok := IsClosedSet(g, []int{0, 1, 2}); !ok {
		t.Fatal("paper triple defect not detected")
	}
	// No pair within the triple is closed on its own: e.g. {0,1} share
	// only right rC, and rA/rB/rD/rE each see one of them once.
	for _, pair := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
		if _, ok := IsClosedSet(g, pair); ok {
			t.Errorf("pair %v should not be closed", pair)
		}
	}
}

func TestClosedSetIsActuallyUnrecoverable(t *testing.T) {
	// The whole point of the defect scan: a closed set is a real data-loss
	// pattern for the decoder.
	for name, build := range map[string]func(*testing.T) *graph.Graph{
		"pair":   pairDefect,
		"triple": tripleDefect,
	} {
		g := build(t)
		d := decode.New(g)
		findings := MustScanData(t, g, 3)
		if len(findings) == 0 {
			t.Fatalf("%s: no findings", name)
		}
		for _, f := range findings {
			if d.Recoverable(f.Lefts) {
				t.Errorf("%s: finding %v is recoverable — not a real defect", name, f)
			}
		}
	}
}

func TestScanFindsMinimalOnly(t *testing.T) {
	g := pairDefect(t)
	findings := MustScanData(t, g, 3)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the {0,1} pair", findings)
	}
	f := findings[0]
	if len(f.Lefts) != 2 || f.Lefts[0] != 0 || f.Lefts[1] != 1 {
		t.Errorf("finding = %v", f)
	}
	// Supersets of {0,1} must have been suppressed.
	for _, g2 := range findings {
		if len(g2.Lefts) == 3 {
			t.Errorf("non-minimal finding %v", g2)
		}
	}
}

func TestScanClean(t *testing.T) {
	g := clean(t)
	if fs := MustScanData(t, g, 3); len(fs) != 0 {
		t.Errorf("clean graph produced findings: %v", fs)
	}
}

func TestScreenReportsDefect(t *testing.T) {
	fs := MustScanData(t, tripleDefect(t), 3)
	if len(fs) != 1 || len(fs[0].Lefts) != 3 {
		t.Fatalf("findings = %v, want the one closed triple", fs)
	}
}

func TestScanMaxSizeClamped(t *testing.T) {
	g := clean(t)
	// maxSize larger than the data level must not panic.
	if fs := MustScanData(t, g, 100); len(fs) != 0 {
		t.Errorf("findings = %v", fs)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Lefts: []int{17, 22}, Rights: []int{48, 57}}
	if s := f.String(); s == "" {
		t.Error("empty String")
	}
}

func TestSubset(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 2}, []int{1, 2, 3}, true},
		{[]int{1, 4}, []int{1, 2, 3}, false},
		{nil, []int{1}, true},
		{[]int{1}, nil, false},
	}
	for _, c := range cases {
		if got := subset(c.a, c.b); got != c.want {
			t.Errorf("subset(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func BenchmarkScanDataLevel96(b *testing.B) {
	g := bench96Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustScanData(b, g, 3)
	}
}
