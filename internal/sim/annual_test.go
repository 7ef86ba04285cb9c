package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/raid"
	"tornado/internal/reliability"
	"tornado/internal/stats"
)

// annualBlock is AnnualLossMonteCarlo's trial-block size: part of its
// sampling scheme, so changing it changes every result.
const annualBlock = 4096

// AnnualLossMonteCarlo estimates a graph system's one-year data-loss
// probability by direct simulation of the §5.1 model: each trial fails
// every device independently with probability afr and asks the decoder
// whether data survived. It is the end-to-end cross-check of Equation
// (3)'s composition (binomial weights × conditional failure profile) —
// both must converge to the same number. The result depends on seed and
// trials only, not on workers; cancellation is checked between trials.
func AnnualLossMonteCarlo(ctx context.Context, g *graph.Graph, afr float64, trials int64, seed uint64, workers int) (stats.Proportion, error) {
	if afr < 0 || afr > 1 {
		return stats.Proportion{}, fmt.Errorf("sim: afr %v out of [0,1]", afr)
	}
	trials = int64Or(trials, 10000)
	blocks, err := forTrialBlocks(ctx, g, defaultWorkers(workers), trials, annualBlock, seed, 0xAFA<<48,
		func(ctx context.Context, w *simWorker, rng *rand.Rand, n int64) (stats.Proportion, error) {
			var hits int64
			for t := int64(0); t < n; t++ {
				if err := ctx.Err(); err != nil {
					return stats.Proportion{}, err
				}
				erased := w.nodes[:0]
				for v := 0; v < g.Total; v++ {
					if rng.Float64() < afr {
						erased = append(erased, v)
					}
				}
				if len(erased) > 0 && !w.d.Recoverable(erased) {
					hits++
				}
			}
			return stats.Proportion{Hits: hits, Trials: n}, nil
		})
	if err != nil {
		return stats.Proportion{}, err
	}
	return stats.Pool(blocks...), nil
}

// TestAnnualLossMatchesEquation3 cross-validates the §5.1 analysis end to
// end: direct simulation of independent device failures against the
// Equation (2)–(3) composition, on the mirrored system whose conditional
// profile is known in closed form. A high AFR makes losses frequent enough
// to measure tightly.
func TestAnnualLossMatchesEquation3(t *testing.T) {
	const pairs, afr = 8, 0.15
	g := mirrorGraph(pairs)
	want := reliability.SystemFailure(2*pairs, afr, func(k int) float64 {
		return raid.MirroredFailGivenK(pairs, k)
	})
	got, err := AnnualLossMonteCarlo(context.Background(), g, afr, 60000, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := got.Wilson(3.5) // wide interval: this must not flake
	if want < lo || want > hi {
		t.Errorf("analytic %v outside simulated interval [%v, %v] (est %v)", want, lo, hi, got.Estimate())
	}
}

func TestAnnualLossEdgeCases(t *testing.T) {
	g := mirrorGraph(4)
	p, err := AnnualLossMonteCarlo(context.Background(), g, 0, 1000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != 0 {
		t.Errorf("afr=0 produced %d losses", p.Hits)
	}
	p, err = AnnualLossMonteCarlo(context.Background(), g, 1, 1000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != p.Trials {
		t.Errorf("afr=1 survived %d times", p.Trials-p.Hits)
	}
	if _, err := AnnualLossMonteCarlo(context.Background(), g, -0.1, 10, 1, 1); err == nil {
		t.Error("negative afr accepted")
	}
	if _, err := AnnualLossMonteCarlo(context.Background(), g, 1.5, 10, 1, 1); err == nil {
		t.Error("afr>1 accepted")
	}
}

func TestAnnualLossDefaultTrials(t *testing.T) {
	g := mirrorGraph(2)
	p, err := AnnualLossMonteCarlo(context.Background(), g, 0.1, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trials != 10000 {
		t.Errorf("default trials = %d", p.Trials)
	}
}

// TestAnnualLossOnTornadoProfileConsistency: for a tornado graph at an
// elevated AFR, simulation and the profile-composed analytic must agree.
func TestAnnualLossOnTornadoProfile(t *testing.T) {
	g := tornadoForAnnual(t)
	const afr = 0.2
	prof, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: 20000, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := reliability.SystemFailure(g.Total, afr, prof.FailFraction)
	got, err := AnnualLossMonteCarlo(context.Background(), g, afr, 30000, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Estimate()-want) > 0.02 {
		t.Errorf("simulated %v vs composed %v", got.Estimate(), want)
	}
}

// tornadoForAnnual builds a screened tornado graph for the annual-loss
// consistency test.
func tornadoForAnnual(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 3)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAnnualLossDeterministicAcrossWorkers: Hits/Trials depend on the seed
// and the trial count only.
func TestAnnualLossDeterministicAcrossWorkers(t *testing.T) {
	g := mirrorGraph(8)
	const trials = 5*annualBlock + 5
	var want stats.Proportion
	for i, workers := range []int{1, 2, 3, 7} {
		got, err := AnnualLossMonteCarlo(context.Background(), g, 0.15, trials, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("workers %d: %v, workers 1: %v", workers, got, want)
		}
	}
	if want.Trials != trials || want.Hits == 0 || want.Hits == trials {
		t.Errorf("implausible result %v", want)
	}
}
