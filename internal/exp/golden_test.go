package exp

import (
	"context"
	"math/rand/v2"
	"testing"

	"tornado/internal/adjust"
	"tornado/internal/core"
)

// The golden values below pin the exhaustive-certification results of the
// three Quick() Tornado graphs and the k=4 clear-cardinality counts of the
// adjustment procedure. Everything pinned is computed by exact enumeration
// over a seeded deterministic pipeline, and is independent of worker count
// (exhaustive failure *counts* are order-invariant aggregates, and every
// recorded failure list here is far below the MaxFailures cap, so scan
// order cannot change which sets are kept). A diff in these numbers means
// the decoder, the enumeration order's completeness, the generator, or the
// adjustment heuristic changed behavior — exactly the regressions the
// incremental kernel must not introduce.
//
// Monte Carlo profile numbers are deliberately not pinned: trial streams
// are split per worker, so they vary with GOMAXPROCS.

// TestGoldenQuickCertification pins exp.Quick()'s worst-case search per
// graph: first failure at 4 lost nodes (the paper's pre-adjustment
// screened-graph result), the exact failing-set count at that cardinality,
// and the full C(96,4) enumeration size.
func TestGoldenQuickCertification(t *testing.T) {
	golden := []struct {
		name         string
		firstFailure int
		failuresAtFF int64
		testedAtFF   int64
		criticalSets int
	}{
		{"Tornado Graph 1", 4, 3, 3321960, 3},
		{"Tornado Graph 2", 4, 1, 3321960, 1},
		{"Tornado Graph 3", 4, 4, 3321960, 4},
	}
	cfg := Quick()
	cfg.Trials = 64 // profile is not under test; keep the pipeline cheap
	for i, want := range golden {
		tg, err := PrepareTornado(cfg, i)
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if tg.Name != want.name {
			t.Errorf("graph %d name = %q, want %q", i, tg.Name, want.name)
		}
		if tg.FirstFailure != want.firstFailure {
			t.Errorf("%s: first failure = %d, want %d", want.name, tg.FirstFailure, want.firstFailure)
		}
		at := tg.Profile.Fail[tg.FirstFailure]
		if at.Hits != want.failuresAtFF {
			t.Errorf("%s: failures at first failure = %d, want %d", want.name, at.Hits, want.failuresAtFF)
		}
		if at.Trials != want.testedAtFF {
			t.Errorf("%s: combinations tested = %d, want %d", want.name, at.Trials, want.testedAtFF)
		}
		if got := len(tg.CriticalSets); got != want.criticalSets {
			t.Errorf("%s: %d critical sets recorded, want %d", want.name, got, want.criticalSets)
		}
	}
}

// TestGoldenClearCardinality pins the Full()-style k=4 adjustment pass on
// each Quick() seed: the exact failing-set count before clearing, the count
// the rewiring converged to, the rounds it took, and whether it cleared.
// Seed 2007 used to stall at one stubborn k=4 failure; with worker-count-
// independent failure witnesses (lex-smallest prefix) and defect-screened
// replacement candidates the heuristic now lands a rewire that clears it.
func TestGoldenClearCardinality(t *testing.T) {
	golden := []struct {
		seed            uint64
		initialFailures int64
		finalFailures   int64
		rounds          int
		cleared         bool
	}{
		{2006, 3, 0, 2, true},
		{2007, 1, 0, 2, true},
		{2011, 4, 0, 4, true},
	}
	for _, want := range golden {
		g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(want.seed, 0)))
		if err != nil {
			t.Fatalf("seed %d: %v", want.seed, err)
		}
		_, reps, err := adjust.ImproveCtx(context.Background(), g, 4, adjust.Options{}, rand.New(rand.NewPCG(want.seed, 1)))
		if err != nil {
			t.Fatalf("seed %d: %v", want.seed, err)
		}
		if len(reps) != 1 {
			t.Fatalf("seed %d: %d clear reports, want 1 (k=4 only)", want.seed, len(reps))
		}
		rep := reps[0]
		if rep.K != 4 {
			t.Errorf("seed %d: cleared cardinality %d, want 4", want.seed, rep.K)
		}
		if rep.InitialFailures != want.initialFailures {
			t.Errorf("seed %d: initial failures = %d, want %d", want.seed, rep.InitialFailures, want.initialFailures)
		}
		if rep.FinalFailures != want.finalFailures {
			t.Errorf("seed %d: final failures = %d, want %d", want.seed, rep.FinalFailures, want.finalFailures)
		}
		if rep.Rounds != want.rounds {
			t.Errorf("seed %d: rounds = %d, want %d", want.seed, rep.Rounds, want.rounds)
		}
		if rep.Cleared != want.cleared {
			t.Errorf("seed %d: cleared = %v, want %v", want.seed, rep.Cleared, want.cleared)
		}
	}
}
