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

// TestDenseCardinalitiesTakeTheScan: near k = n a graph has few patterns
// and an astronomical number of stopping sets — the default profile's
// exact points on tornado96 are k = 94, 95, 96 — so the search's step
// budget must hand them to the scan, with the scan's answer.
func TestDenseCardinalitiesTakeTheScan(t *testing.T) {
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	if _, complete := decode.NewStoppingEnumerator(decode.NewCSR(g)).Root(nil, 0, 94, 95); complete {
		t.Error("a 95-step search from root 0 at k=94 reports it finished")
	}
	for k := 94; k <= 96; k++ {
		space, _ := combin.BinomialInt64(g.Total, k)
		want, err := ScanRangeCtx(context.Background(), g, k, 0, space, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExhaustiveKCtx(context.Background(), g, k, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tested != want.Tested || got.FailureCount != want.FailureCount || !reflect.DeepEqual(got.Failures, want.Failures) {
			t.Errorf("k=%d: %+v, scan %+v", k, got, want)
		}
	}
}
