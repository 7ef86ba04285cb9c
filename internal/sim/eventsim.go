package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"tornado/internal/graph"
)

// LifetimeOptions tunes the discrete-event lifetime simulation.
type LifetimeOptions struct {
	// Lambda is the per-device failure rate (per year).
	Lambda float64
	// Mu is the per-repairman rebuild rate (per year); a rebuild restores
	// one failed device completely.
	Mu float64
	// Repairmen bounds concurrent rebuilds; 0 disables repair.
	Repairmen int
	// Runs is the number of independent system lifetimes simulated.
	Runs int
	// MaxYears truncates runs that never lose data (their lifetime counts
	// as MaxYears, biasing the estimate low — keep it far above the
	// expected MTTDL or treat the result as a lower bound). Default 1e6.
	MaxYears float64
	// Seed drives all sampling.
	Seed uint64
	// Workers bounds goroutines.
	Workers int
}

func (o LifetimeOptions) normalize() LifetimeOptions {
	o.Runs = intOr(o.Runs, DefaultLifetimeRuns)
	o.MaxYears = floatOr(o.MaxYears, DefaultLifetimeMaxYears)
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// LifetimeResult summarizes simulated times to data loss.
type LifetimeResult struct {
	Runs      int
	Truncated int // runs that hit MaxYears without losing data
	MeanYears float64
}

// SimulateLifetimeCtx is the ground-truth counterpart of the Markov MTTDL
// model (reliability.MTTDL): a discrete-event simulation of the actual
// graph under exponential per-device failures and a bounded repair crew.
// Unlike the Markov chain — which collapses the failed-device identities
// into a count and the measured profile — the event simulation tracks
// exactly which devices are down and asks the real decoder whether data
// survived, so it validates both the chain and the profile at once. The
// result depends on Seed and Runs only, not on Workers (MeanYears bit for
// bit: the runs' lifetimes are summed in run order); cancellation is
// checked between runs.
func SimulateLifetimeCtx(ctx context.Context, g *graph.Graph, opts LifetimeOptions) (LifetimeResult, error) {
	opts = opts.normalize()
	if opts.Lambda <= 0 {
		return LifetimeResult{}, fmt.Errorf("sim: lambda must be positive")
	}
	if opts.Mu < 0 || opts.Repairmen < 0 {
		return LifetimeResult{}, fmt.Errorf("sim: negative repair parameters")
	}
	res := LifetimeResult{Runs: opts.Runs}
	blocks, err := forTrialBlocks(ctx, g, opts.Workers, int64(opts.Runs), lifetimeBlock, opts.Seed, 0x11FE<<48,
		func(ctx context.Context, w *simWorker, rng *rand.Rand, n int64) (sum lifetimeSum, err error) {
			for i := int64(0); i < n; i++ {
				if err := ctx.Err(); err != nil {
					return sum, err
				}
				t, truncated := oneLifetime(w, opts, rng)
				sum.years += t
				if truncated {
					sum.truncated++
				}
			}
			return sum, nil
		})
	if err != nil {
		return res, err
	}
	years := 0.0
	for _, sum := range blocks {
		years += sum.years
		res.Truncated += sum.truncated
	}
	res.MeanYears = years / float64(opts.Runs)
	return res, nil
}

// lifetimeSum is one block of runs: their lifetimes summed in run order.
type lifetimeSum struct {
	years     float64
	truncated int
}

// oneLifetime runs a single system lifetime: exponential failure clocks on
// live devices, exponential rebuild clocks on up to Repairmen failed
// devices, stepping event by event until the surviving set cannot
// reconstruct the data. The failed devices are w.nodes as a list and w.down
// as flags.
func oneLifetime(w *simWorker, opts LifetimeOptions, rng *rand.Rand) (float64, bool) {
	total := len(w.down)
	failed := w.nodes[:0]
	defer func() {
		for _, v := range failed {
			w.down[v] = false
		}
	}()
	now := 0.0
	for now < opts.MaxYears {
		up := total - len(failed)
		failRate := float64(up) * opts.Lambda
		repairRate := float64(min(len(failed), opts.Repairmen)) * opts.Mu
		totalRate := failRate + repairRate
		if totalRate <= 0 {
			return opts.MaxYears, true // nothing can happen
		}
		now += expRand(rng, totalRate)
		if now >= opts.MaxYears {
			return opts.MaxYears, true
		}
		if rng.Float64()*totalRate < failRate {
			// A uniformly random live device fails.
			v := rng.IntN(total)
			for w.down[v] {
				v = rng.IntN(total)
			}
			w.down[v] = true
			failed = append(failed, v)
			if !w.d.Recoverable(failed) {
				return now, false
			}
		} else {
			// A uniformly random under-repair device comes back.
			i := rng.IntN(min(len(failed), opts.Repairmen))
			w.down[failed[i]] = false
			failed[i] = failed[len(failed)-1]
			failed = failed[:len(failed)-1]
		}
	}
	return opts.MaxYears, true
}

// expRand draws an exponential variate with the given rate.
func expRand(rng *rand.Rand, rate float64) float64 {
	return -math.Log(1-rng.Float64()) / rate
}
