package adjust

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

// tornado32 generates a small screened Tornado graph whose adjustment run
// exercises several rounds (unlike the one-rewire defectivePair fixture).
func tornado32(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	p := core.DefaultParams()
	p.TotalNodes = 32
	p.MinFinalLeft = 4
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(seed, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClearKSeededReproducible is the regression test for adjustment drift:
// the same seed must yield an identical Report and graph fingerprint at any
// worker count, which holds only if the failure witnesses feeding
// pickRewire are themselves worker-count independent.
func TestClearKSeededReproducible(t *testing.T) {
	g := tornado32(t, 11)
	res, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("fixture tolerates 4 losses; nothing to clear")
	}
	k := res.FirstFailure

	type run struct {
		rep Report
		fp  string
	}
	var runs []run
	for _, workers := range []int{1, 8, 1} {
		out, rep, err := ClearKCtx(t.Context(), g, k, Options{MaxRounds: 6, Workers: workers}, rand.New(rand.NewPCG(7, 7)))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{rep, out.Fingerprint()})
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[i].rep, runs[0].rep) {
			t.Errorf("run %d report differs:\n got %+v\nwant %+v", i, runs[i].rep, runs[0].rep)
		}
		if runs[i].fp != runs[0].fp {
			t.Errorf("run %d graph fingerprint differs", i)
		}
	}
}

// TestClearKLineageMatchesGraph: replaying the reported rewires on the
// input reproduces the returned graph — the lineage never includes a
// reverted (degrading) step.
func TestClearKLineageMatchesGraph(t *testing.T) {
	g := tornado32(t, 11)
	res, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("fixture tolerates 4 losses; nothing to clear")
	}
	out, rep, err := ClearKCtx(ctx, g, res.FirstFailure, Options{MaxRounds: 6}, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	replay := g.Clone()
	for _, rw := range rep.Rewires {
		replay.RewireEdge(rw.Left, rw.From, rw.To)
	}
	if replay.Fingerprint() != out.Fingerprint() {
		t.Errorf("replaying %d rewires does not reproduce the returned graph", len(rep.Rewires))
	}
}

// TestClearKNeverDegrades: the returned graph's failure count can only be
// at or below the input's — a rewire that made things worse must have been
// reverted rather than kept.
func TestClearKNeverDegrades(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := tornado32(t, seed)
		res, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			continue
		}
		k := res.FirstFailure
		out, rep, err := ClearKCtx(ctx, g, k, Options{MaxRounds: 4}, rand.New(rand.NewPCG(seed, 99)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.FinalFailures > rep.InitialFailures {
			t.Errorf("seed %d: failures rose %d → %d", seed, rep.InitialFailures, rep.FinalFailures)
		}
		kr, err := sim.ExhaustiveKCtx(context.Background(), out, k, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if kr.FailureCount != rep.FinalFailures {
			t.Errorf("seed %d: returned graph has %d failures at k=%d, report says %d",
				seed, kr.FailureCount, k, rep.FinalFailures)
		}
	}
}
