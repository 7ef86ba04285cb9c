package sim

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"tornado/internal/decode"
	"tornado/internal/graph"
)

// Effective defaults for the package's option types, exported so callers,
// CLIs, and docs can reference the real values instead of restating them.
const (
	// DefaultMaxK is the largest erasure cardinality WorstCase examines
	// (the paper searched C(96,1) through C(96,6); 5 keeps the default run
	// interactive).
	DefaultMaxK = 5
	// DefaultMaxFailures caps the failing sets recorded verbatim per
	// cardinality (the failure count stays exact regardless).
	DefaultMaxFailures = 256
	// DefaultProfileTrials is the Monte Carlo sample count per
	// offline-node count in FailureProfile. The paper used 10–34 million
	// per point; 20,000 preserves the curve shape on a laptop.
	DefaultProfileTrials = 20000
	// DefaultLifetimeRuns is the number of independent system lifetimes
	// SimulateLifetime draws.
	DefaultLifetimeRuns = 200
	// DefaultLifetimeMaxYears truncates lifetime runs that never lose
	// data.
	DefaultLifetimeMaxYears = 1e6
)

// cancelCheckInterval is the combination-chunk size between context checks
// in worker loops: cancellation is honored within one chunk of work, so a
// canceled WorstCase, Profile or SampleStratified returns promptly without
// paying a per-combination atomic load.
const cancelCheckInterval = 8192

// The package's option idiom: every Options type has a normalize() method
// (value receiver, returns the normalized copy) that replaces zero fields
// with the exported Default* constants; exported entry points call it once
// on entry and never mutate the caller's value. New option types should
// follow the same shape instead of hand-rolling setDefaults variants.

// defaultWorkers resolves a worker-count option.
func defaultWorkers(v int) int {
	if v > 0 {
		return v
	}
	return runtime.GOMAXPROCS(0)
}

// forBlocksCtx calls fn(ctx, w, b) for every block b in [0, n), spread over
// at most workers goroutines, the caller's among them: w < workers names the
// goroutine — 0 is the caller — so fn may keep per-goroutine state in a
// slice. An atomic counter deals the blocks to whichever goroutine asks
// next. At one worker, or one block, the loop runs inline on the caller and
// starts nothing. The first error — the caller's cancellation included —
// cancels the context fn runs under, with that error as its cause, skips
// the blocks not yet started, and is returned. A block that returns errStop
// ends the loop the same way, but cleanly: forBlocksCtx returns nil, and
// what the blocks it cancels return is dropped.
func forBlocksCtx(ctx context.Context, workers int, n int64, fn func(ctx context.Context, w int, b int64) error) error {
	workers = int(min(int64(workers), n))
	if workers <= 1 {
		var err error
		for b := int64(0); b < n && err == nil; b++ {
			if err = ctx.Err(); err == nil {
				err = fn(ctx, 0, b)
			}
		}
		return clean(err)
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var next atomic.Int64
	var first error
	var once sync.Once
	run := func(w int) {
		for b := next.Add(1) - 1; b < n; b = next.Add(1) - 1 {
			err := ctx.Err()
			if err == nil {
				err = fn(ctx, w, b)
			}
			if err != nil {
				once.Do(func() { first = err; cancel(err) })
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	return clean(first)
}

// errStop, returned by a forBlocksCtx block, ends the loop without an error.
var errStop = errors.New("sim: the blocks after this one are not needed")

// clean is forBlocksCtx's error: err, unless it is the stop.
func clean(err error) error {
	if err == errStop {
		return nil
	}
	return err
}

// lifetimeBlock is the lifetime simulation's trial-block size, in system
// lifetimes: a few milliseconds of work, so a modest run count still spreads
// over the workers. It is part of the sampling scheme — changing it changes
// every result.
const lifetimeBlock = 8

// simWorker is the state one forTrialBlocks worker reuses across blocks.
type simWorker struct {
	d     *decode.Decoder
	nodes []int  // node-ID scratch, capacity Total
	down  []bool // per-node flags, all false between trials
}

// forTrialBlocks is the fan-out of the simulations that ask the Decoder
// event by event (the lifetime simulation, and the tests' annual-loss Monte
// Carlo): trials [0, trials) are cut into blocks of blockSize, and block b
// runs on whichever worker is free, drawing from its own PCG stream (seed,
// tag|b). The per-block results come back in
// block order, so a caller that folds them in order returns the same bits
// at any worker count. The first block error — cancellation included —
// stops the blocks not yet started and is returned.
func forTrialBlocks[R any](ctx context.Context, g *graph.Graph, workers int, trials, blockSize int64, seed, tag uint64,
	block func(ctx context.Context, w *simWorker, rng *rand.Rand, n int64) (R, error)) ([]R, error) {
	blocks := (trials + blockSize - 1) / blockSize
	res := make([]R, blocks)
	state := make([]*simWorker, workers)
	err := forBlocksCtx(ctx, workers, blocks, func(ctx context.Context, w int, b int64) (err error) {
		if state[w] == nil {
			state[w] = &simWorker{d: decode.New(g), nodes: make([]int, 0, g.Total), down: make([]bool, g.Total)}
		}
		rng := rand.New(rand.NewPCG(seed, tag|uint64(b)))
		res[b], err = block(ctx, state[w], rng, min(blockSize, trials-b*blockSize))
		return err
	})
	return res, err
}

// intOr returns v when positive, otherwise def.
func intOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// int64Or returns v when positive, otherwise def.
func int64Or(v, def int64) int64 {
	if v > 0 {
		return v
	}
	return def
}

// floatOr returns v when positive, otherwise def.
func floatOr(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}
