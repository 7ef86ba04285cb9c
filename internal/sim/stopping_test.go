package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/graphml"
)

// scanWorstCase is the stopping-set path's differential oracle: the same
// search as a rank-scan Job over a LocalRunner.
func scanWorstCase(t *testing.T, g *graph.Graph, opts WorstCaseOptions) WorstCaseResult {
	t.Helper()
	j := NewWorstCaseJob(g, opts, 0)
	if err := j.Run(context.Background(), NewLocalRunner(g, opts.Workers)); err != nil {
		t.Fatal(err)
	}
	return *j.WorstCase
}

// TestStoppingMatchesScan is the stopping-set path's differential battery:
// WorstCaseCtx must return, field by field, what the rank scan returns —
// per-k Tested, FailureCount and recorded Failures, FirstFailure, and where
// the stop rule ends the search — at 1, 2 and 4 workers. The shipped graphs
// run to k=5; unscreened cascades (many small stopping sets, so the closure
// overlaps heavily) run with KeepGoing to k=5 at n=16/32 and k=4 at
// n=48/96; mirrors run at every k, where the closure is over budget from
// the middle cardinalities on and the cost guard hands them to the scan.
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
