package sim

import (
	"context"
	"fmt"
	"math/rand/v2"

	"tornado/internal/graph"
	"tornado/internal/stats"
)

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
