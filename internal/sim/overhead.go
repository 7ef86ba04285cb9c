package sim

import (
	"context"
	"math/rand/v2"

	"tornado/internal/graph"
	"tornado/internal/stats"
)

// OverheadOptions tunes the reconstruction-overhead measurement — the
// experiment the paper defers to future work (§5.2, §6) and credits to
// Plank's methodology: "a testing system would start with a certain number
// of online nodes and retrieve nodes until the graph can be reconstructed".
type OverheadOptions struct {
	// Trials is the number of random retrieval orders sampled. Default
	// DefaultOverheadTrials.
	Trials int64
	// Workers bounds goroutines; default GOMAXPROCS.
	Workers int
	// Seed drives the sampled retrieval orders.
	Seed uint64
}

func (o OverheadOptions) normalize() OverheadOptions {
	o.Trials = int64Or(o.Trials, DefaultOverheadTrials)
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// OverheadResult is the distribution of the minimum number of blocks that
// had to be retrieved, in a uniformly random order, before the data could
// be reconstructed.
type OverheadResult struct {
	GraphName string
	Data      int
	Total     int
	// Counts is a histogram over retrieval counts 0..Total.
	Counts *stats.Histogram
}

// Mean returns the average retrieval count.
func (r OverheadResult) Mean() float64 { return r.Counts.MeanValue() }

// MeanOverhead returns Mean divided by the data block count — the
// "overhead" figure of the LDPC storage literature (1.0 would be an MDS
// code; the paper cites <1.2 for large graphs and measures 1.27–1.29 for
// its 96-node graphs by the 50%-profile method).
func (r OverheadResult) MeanOverhead() float64 { return r.Mean() / float64(r.Data) }

// Quantile returns the retrieval count at the given quantile.
func (r OverheadResult) Quantile(q float64) int { return r.Counts.Quantile(q) }

// OverheadCtx measures g's reconstruction overhead: each trial draws a
// random permutation of the node IDs (the order blocks arrive from devices)
// and peels it once as it arrives, to its shortest prefix that reconstructs
// all data (decode.Decoder.Threshold).
//
// The result depends on Seed and Trials only, not on Workers; cancellation
// is checked between trials.
func OverheadCtx(ctx context.Context, g *graph.Graph, opts OverheadOptions) (OverheadResult, error) {
	opts = opts.normalize()
	res := OverheadResult{
		GraphName: g.Name,
		Data:      g.Data,
		Total:     g.Total,
		Counts:    stats.NewHistogram(g.Total + 1),
	}
	blocks, err := forTrialBlocks(ctx, g, opts.Workers, opts.Trials, overheadBlock, opts.Seed, 0xC0DE<<48,
		func(ctx context.Context, w *simWorker, rng *rand.Rand, n int64) ([]int32, error) {
			// Every block shuffles on from the identity, not from the order
			// the worker's last block left behind.
			order := w.nodes[:g.Total]
			for i := range order {
				order[i] = i
			}
			prefixes := make([]int32, n)
			for t := range prefixes {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				prefixes[t] = int32(w.d.Threshold(order, 0, g.Total))
			}
			return prefixes, nil
		})
	if err != nil {
		return res, err
	}
	for _, prefixes := range blocks {
		for _, p := range prefixes {
			res.Counts.Observe(int(p))
		}
	}
	return res, nil
}
