package adjust

import (
	"context"
	"math/rand/v2"

	"tornado/internal/graph"
	"tornado/internal/sim"
)

// ClearKCtx is clearK after its first exhaustive test round: it clears
// cardinality k of g on its own, as the tests drive it.
func ClearKCtx(ctx context.Context, g *graph.Graph, k int, opts Options, rng *rand.Rand) (*graph.Graph, Report, error) {
	opts.setDefaults()
	kr, err := sim.ExhaustiveKCtx(ctx, g, k, opts.MaxFailures, opts.Workers)
	if err != nil {
		return nil, Report{K: k}, err
	}
	return clearK(ctx, g, kr, opts, rng)
}
