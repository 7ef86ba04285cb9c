package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
)

// scanWorstCase is the stopping-set path's differential oracle: the same
// search as one ScanRangeCtx over each cardinality's whole rank space,
// stopping after the first failing cardinality unless opts.KeepGoing.
func scanWorstCase(t *testing.T, g *graph.Graph, opts WorstCaseOptions) WorstCaseResult {
	t.Helper()
	opts = opts.normalize()
	var wc WorstCaseResult
	for k := 1; k <= opts.MaxK; k++ {
		space, _ := combin.BinomialInt64(g.Total, k)
		rr, err := ScanRangeCtx(context.Background(), g, k, 0, space, opts.MaxFailures)
		if err != nil {
			t.Fatal(err)
		}
		wc.PerK = append(wc.PerK, KResult{K: k, Tested: rr.Tested, FailureCount: rr.FailureCount, Failures: rr.Failures})
		wc.Tested += rr.Tested
		if rr.FailureCount > 0 && !wc.Found {
			wc.Found, wc.FirstFailure = true, k
			if !opts.KeepGoing {
				break
			}
		}
	}
	return wc
}

// TestStoppingMatchesScan is the stopping-set path's differential battery:
// WorstCaseCtx must return, field by field, what the rank scan returns —
// per-k Tested, FailureCount and recorded Failures, FirstFailure, and where
// the stop rule ends the search — at 1, 2 and 4 workers. The shipped graphs
// run to k=5; unscreened cascades (many small stopping sets, so the closure
// overlaps heavily) run with KeepGoing to k=5 at n=16/32 and k=4 at
// n=48/96; mirrors run at every k, where the closure is over budget from
// the middle cardinalities on and the cost guard hands them to the scan.
// Under -race the n=96 cases (the shipped graphs and unscreened-96), whose
// rank-space scans dominate the test, are skipped.
func TestStoppingMatchesScan(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
		opts WorstCaseOptions
	}
	var cases []tc
	for i := 1; i <= 3; i++ {
		g, err := graphml.ReadFile(fmt.Sprintf("../../precompiled/tornado96-%d.graphml", i))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{g.Name, g, WorstCaseOptions{MaxK: 5}})
	}
	for _, sz := range []struct{ n, maxK int }{{16, 5}, {32, 5}, {48, 4}, {96, 4}} {
		p := core.DefaultParams()
		p.TotalNodes = sz.n
		for seed := uint64(0); seed < 15; seed++ {
			g, err := core.GenerateUnscreened(p, rand.New(rand.NewPCG(seed, 0x570)))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tc{fmt.Sprintf("unscreened-%d/%d", sz.n, seed), g, WorstCaseOptions{MaxK: sz.maxK, KeepGoing: true, MaxFailures: 16}})
		}
	}
	for _, n := range []int{4, 6, 8} {
		cases = append(cases, tc{fmt.Sprintf("mirror-%d", n), mirrorGraph(n), WorstCaseOptions{MaxK: 2 * n, KeepGoing: true, MaxFailures: 8}})
	}
	for _, c := range cases {
		if raceEnabled && c.g.Total == 96 {
			continue
		}
		want := scanWorstCase(t, c.g, c.opts)
		for _, workers := range []int{1, 2, 4} {
			opts := c.opts
			opts.Workers = workers
			got, err := WorstCaseCtx(context.Background(), c.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d:\n stopping sets %+v\n scan          %+v", c.name, workers, got, want)
			}
		}
	}
}

// scanK is cardinality k's KResult from one ScanRangeCtx over its whole
// rank space: the oracle of every exhaustiveK shortcut.
func scanK(t *testing.T, g *graph.Graph, k, maxFailures int) KResult {
	t.Helper()
	space, _ := combin.BinomialInt64(g.Total, k)
	rr, err := ScanRangeCtx(context.Background(), g, k, 0, space, maxFailures)
	if err != nil {
		t.Fatal(err)
	}
	return KResult{K: k, Tested: rr.Tested, FailureCount: rr.FailureCount, Failures: rr.Failures}
}

// TestDenseCardinalitiesTakeTheScan: a graph can have far more small
// stopping sets than patterns. With two checks over all 8 data nodes,
// every data pair is one, 7 from each root at k=2, where the search's step
// budget is C(10,2)/8 = 5 per root: the search must give up and hand the
// cardinality to the scan, with the scan's answer, and count one fallback;
// k=1, whose search finishes within budget, counts none.
func TestDenseCardinalitiesTakeTheScan(t *testing.T) {
	b := graph.NewBuilder(8)
	r := b.AddLevel(0, 8, 2)
	g := b.Graph()
	for q := r; q < r+2; q++ {
		g.SetNeighbors(q, []int{0, 1, 2, 3, 4, 5, 6, 7})
	}
	if _, complete := decode.NewStoppingEnumerator(g, nil).Root(nil, 0, 0, 2, 5); complete {
		t.Error("a 5-step search from root 0 at k=2 reports it finished")
	}
	fallbacks := Metrics().Counter(MetricScanFallbacks)
	for k := 1; k <= 2; k++ {
		want := scanK(t, g, k, 4)
		before := fallbacks.Value()
		got, err := ExhaustiveKCtx(context.Background(), g, k, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: %+v, scan %+v", k, got, want)
		}
		if n, want := fallbacks.Value()-before, int64(k-1); n != want {
			t.Errorf("k=%d: %s moved by %d, want %d", k, MetricScanFallbacks, n, want)
		}
	}
}

// TestClosedFormMatchesScan: past k = Total − Data exhaustiveK answers in
// closed form (allFail) and visits no pattern. At every such k whose rank
// space a unit test scans quickly — k ≥ 93 on tornado96-1, k ≥ 27 on the
// unscreened n=32 graphs, and from the first closed-form cardinality, k=9,
// on an n=16 one — its KResult must equal the rank scan's at MaxFailures 0,
// 1 and 16.
func TestClosedFormMatchesScan(t *testing.T) {
	g96, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{g96}
	for _, c := range []struct {
		n    int
		seed uint64
	}{{32, 0}, {32, 1}, {16, 0}} {
		p := core.DefaultParams()
		p.TotalNodes = c.n
		g, err := core.GenerateUnscreened(p, rand.New(rand.NewPCG(c.seed, 0x570)))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		l := NewLocalRunner(g, 2)
		for k := g.Total - g.Data + 1; k <= g.Total; k++ {
			if space, ok := combin.BinomialInt64(g.Total, k); !ok || space > 1<<18 {
				continue
			}
			for _, maxFailures := range []int{0, 1, 16} {
				got, err := l.exhaustiveK(context.Background(), k, maxFailures)
				if err != nil {
					t.Fatal(err)
				}
				if want := scanK(t, g, k, maxFailures); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d k=%d maxFailures=%d:\n closed form %+v\n scan        %+v", g.Total, k, maxFailures, got, want)
				}
			}
		}
	}
}
