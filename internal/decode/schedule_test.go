package decode

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/graph"
	"tornado/internal/graphml"
)

// checkSchedule holds d's schedules for one erasure set against the
// reference fixpoint: the full schedule's targets are exactly the erased
// nodes the reference recovers, each once, and every step's sources are
// present or earlier targets; the pruned schedule is a subsequence of it,
// self-sufficient the same way, whose targets cover data ∪ (want ∩
// closure). d is left at baseline.
func checkSchedule(t testing.TB, g *graph.Graph, d *Decoder, erased []int, want []bool) {
	t.Helper()
	_, residue := referencePeel(g, erased)
	inClosure := make([]bool, g.Total)
	for _, v := range erased {
		inClosure[v] = !slices.Contains(residue, v)
	}

	d.Erase(erased...)
	full := slices.Clone(d.Schedule())
	d.Reset()
	d.Erase(erased...)
	pruned := slices.Clone(d.ScheduleFor(want))
	d.Reset()

	valid := func(name string, steps []Step) []bool {
		t.Helper()
		have := make([]bool, g.Total)
		for v := range have {
			have[v] = true
		}
		for _, v := range erased {
			have[v] = false
		}
		for i, s := range steps {
			if have[s.Node] {
				t.Fatalf("%s step %d rebuilds node %d, already present (graph %v, erased %v)", name, i, s.Node, g, erased)
			}
			if s.Node != s.Check {
				if !slices.Contains(g.LeftNeighbors(int(s.Check)), s.Node) {
					t.Fatalf("%s step %d: node %d is not a left of check %d", name, i, s.Node, s.Check)
				}
				if !have[s.Check] {
					t.Fatalf("%s step %d reads check %d before it is present (graph %v, erased %v)", name, i, s.Check, g, erased)
				}
			} else if int(s.Check) < g.Data {
				t.Fatalf("%s step %d re-encodes data node %d", name, i, s.Check)
			}
			for _, l := range g.LeftNeighbors(int(s.Check)) {
				if l != s.Node && !have[l] {
					t.Fatalf("%s step %d reads node %d before it is present (graph %v, erased %v)", name, i, l, g, erased)
				}
			}
			have[s.Node] = true
		}
		return have
	}

	valid("full", full)
	targets := make([]bool, g.Total)
	for _, s := range full {
		targets[s.Node] = true
	}
	for _, v := range erased {
		if targets[v] != inClosure[v] {
			t.Fatalf("node %d: scheduled %v, reference recovers it %v (graph %v, erased %v)", v, targets[v], inClosure[v], g, erased)
		}
	}

	have := valid("pruned", pruned)
	j := 0
	for _, s := range pruned {
		for j < len(full) && full[j] != s {
			j++
		}
		if j == len(full) {
			t.Fatalf("pruned schedule %v is not a subsequence of %v", pruned, full)
		}
		j++
	}
	for _, v := range erased {
		if inClosure[v] && (v < g.Data || want[v]) && !have[v] {
			t.Fatalf("pruned schedule leaves node %d missing: data or wanted, and recoverable (graph %v, erased %v, want %v)", v, g, erased, want)
		}
	}
}

// randomWant names each node with probability 1/8.
func randomWant(rng *rand.Rand, n int) []bool {
	want := make([]bool, n)
	for v := range want {
		want[v] = rng.IntN(8) == 0
	}
	return want
}

// TestScheduleMatchesReference runs checkSchedule on the fixture graphs,
// random cascades and the three shipped graphs, over random erasure and want
// sets, each graph on one reused decoder.
func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 20))
	graphs := []*graph.Graph{mirror(4), cascade(t), defective(t)}
	for i := 0; i < 100; i++ {
		graphs = append(graphs, randomCascade(rng))
	}
	for i := 1; i <= 3; i++ {
		g, err := graphml.ReadFile(fmt.Sprintf("../../precompiled/tornado96-%d.graphml", i))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		d := New(g)
		for trial := 0; trial < 30; trial++ {
			erased := rng.Perm(g.Total)[:rng.IntN(g.Total+1)]
			checkSchedule(t, g, d, erased, randomWant(rng, g.Total))
		}
	}
}
