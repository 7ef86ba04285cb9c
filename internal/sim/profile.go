package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/stats"
)

// ProfileOptions tunes the reconstruction-failure profile (paper §3: "the
// fraction of failed reconstructions for a large number of test cases").
type ProfileOptions struct {
	// Trials is the Monte Carlo sample count per offline-node count. The
	// paper used 10–34 million per point (962,144,153 cases, 34 CPU-days);
	// the default of DefaultProfileTrials preserves the curve shape on a
	// laptop.
	Trials int64
	// ExhaustiveLimit switches a point to exact enumeration when
	// C(total, k) is at most this bound. Default DefaultExhaustiveLimit.
	ExhaustiveLimit int64
	// MinK and MaxK bound the examined offline counts; MaxK=0 means the
	// whole range up to Total.
	MinK, MaxK int
	// Workers is the number of goroutines; default GOMAXPROCS.
	Workers int
	// Seed drives all sampling; a fixed seed reproduces the profile.
	Seed uint64
}

func (o ProfileOptions) normalize(total int) ProfileOptions {
	o.Trials = int64Or(o.Trials, DefaultProfileTrials)
	o.ExhaustiveLimit = int64Or(o.ExhaustiveLimit, DefaultExhaustiveLimit)
	o.MinK = intOr(o.MinK, 1)
	if o.MaxK <= 0 || o.MaxK > total {
		o.MaxK = total
	}
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// Profile holds the measured failure fraction for each number of offline
// nodes. Entry k answers: with exactly k randomly chosen devices offline,
// what fraction of cases lose data?
type Profile struct {
	GraphName string
	Total     int // nodes in the graph
	Data      int // data nodes
	Fail      []stats.Proportion
	Exact     []bool // Fail[k] computed by full enumeration rather than sampling
}

// FailureProfileCtx measures g's reconstruction-failure profile, with
// cancellation checked at combination-chunk boundaries inside each worker.
func FailureProfileCtx(ctx context.Context, g *graph.Graph, opts ProfileOptions) (*Profile, error) {
	j, err := NewProfileJob(g, opts, 0)
	if err != nil {
		return nil, err
	}
	if err := j.Run(ctx, NewLocalRunner(g, opts.Workers)); err != nil {
		return nil, err
	}
	return j.Profile, nil
}

// NewProfileJob plans the failure profile of g as one group — every point
// is independent. A point whose rank space is within opts.ExhaustiveLimit
// is one exhaustive unit (only the count matters, so at most one witness
// is recorded); any other is sampled in fixed blocks of shardSize trials,
// block b drawing from RNG stream b, so the block size is part of what
// defines the result. shardSize 0 means DefaultSampledBlock.
func NewProfileJob(g *graph.Graph, opts ProfileOptions, shardSize int64) (*Job, error) {
	opts = opts.normalize(g.Total)
	p := &Profile{
		GraphName: g.Name,
		Total:     g.Total,
		Data:      g.Data,
		Fail:      make([]stats.Proportion, g.Total+1),
		Exact:     make([]bool, g.Total+1),
	}
	// k=0 is trivially exact: nothing missing.
	p.Fail[0] = stats.Proportion{Hits: 0, Trials: 1}
	p.Exact[0] = true

	blockSize := int64Or(shardSize, DefaultSampledBlock)
	var units []Unit
	for k := opts.MinK; k <= opts.MaxK; k++ {
		if c, ok := combin.BinomialInt64(g.Total, k); ok && c <= opts.ExhaustiveLimit {
			if _, err := exhaustiveSpace(g.Total, k); err != nil {
				return nil, err
			}
			units = append(units, Unit{K: k, MaxFailures: 1})
			continue
		}
		nBlocks := (opts.Trials + blockSize - 1) / blockSize
		units = blockUnits(units, Unit{K: k, Seed: opts.Seed}, opts.Trials, blockSize, 0, nBlocks)
	}
	j := &Job{total: g.Total, Groups: [][]Unit{units}, Profile: p}
	j.fold = func(gi int, res []UnitResult) int {
		for i, u := range units {
			p.Fail[u.K].Add(res[i].Tally.Hits, res[i].Tally.Trials)
			p.Exact[u.K] = u.Trials == 0
		}
		return gi + 1
	}
	return j.number(), nil
}

// streamSampler is the reusable state of the profile's trial loop: the
// bit-sliced kernel trials are decoded in, 64 per word, and the bitset the
// subsets are drawn into. One sampler serves one goroutine.
type streamSampler struct {
	c    *decode.CSR
	sk   *decode.SlicedKernel
	seen []uint64 // the current k-subset (combin.RandomSet); all-zero between trials
	// dataMask[w] is the data nodes of seen[w], for the words that hold any.
	dataMask []uint64
}

func newStreamSampler(c *decode.CSR) *streamSampler {
	dataMask := make([]uint64, (c.Data+63)/64)
	for w := range dataMask {
		dataMask[w] = ^uint64(0)
	}
	if r := c.Data % 64; r != 0 {
		dataMask[len(dataMask)-1] = 1<<uint(r) - 1
	}
	return &streamSampler{
		c:        c,
		sk:       decode.NewSlicedKernel(c),
		seen:     make([]uint64, c.Words),
		dataMask: dataMask,
	}
}

// sample draws trials uniformly random k-subsets from the deterministic
// RNG stream identified by (seed, k, stream) and tallies the unrecoverable
// ones: fixed arguments always reproduce the same tally. Cancellation is
// honored at combination-chunk boundaries, and progress counters are
// flushed to Metrics() at the same cadence.
func (s *streamSampler) sample(ctx context.Context, k int, trials int64, seed, stream uint64) (stats.Proportion, error) {
	total, data := int(s.c.Total), int(s.c.Data)
	if k < 1 || k > total {
		return stats.Proportion{}, fmt.Errorf("sim: cardinality %d out of range for %d nodes", k, total)
	}
	reg := Metrics()
	mcTrials := reg.Counter(MetricMCTrials)
	mcFails := reg.Counter(MetricMCFailures)
	if k > total-data {
		// Fewer than Data nodes survive, and every node holds a linear
		// function of the Data data blocks: no decoder can determine them
		// from fewer than Data values, so every trial fails undrawn.
		mcTrials.Add(trials)
		mcFails.Add(trials)
		return stats.Proportion{Hits: trials, Trials: trials}, nil
	}

	rng := rand.New(rand.NewPCG(seed, uint64(k)<<32|stream))
	s.sk.Reset() // a canceled call leaves its last partial word behind
	lanes := 0   // trials staged in the kernel word
	var hits int64
	var lastFlushTrials, lastFlushHits int64
	for i := int64(0); i < trials; i++ {
		if i%cancelCheckInterval == 0 {
			if ctx.Err() != nil {
				return stats.Proportion{}, ctx.Err()
			}
			mcTrials.Add(i - lastFlushTrials)
			mcFails.Add(hits - lastFlushHits)
			lastFlushTrials, lastFlushHits = i, hits
		}
		combin.RandomSet(s.seen, total, k, rng)
		var erasedData uint64
		for w, m := range s.dataMask {
			erasedData |= s.seen[w] & m
		}
		if erasedData == 0 {
			clear(s.seen) // only checks erased, nothing to recover
			continue
		}
		for w, x := range s.seen {
			for ; x != 0; x &= x - 1 {
				s.sk.Erase(w<<6+bits.TrailingZeros64(x), 1<<uint(lanes))
			}
			s.seen[w] = 0
		}
		if lanes++; lanes == decode.Lanes {
			hits += int64(bits.OnesCount64(evalStaged(s.sk, lanes)))
			lanes = 0
		}
	}
	hits += int64(bits.OnesCount64(evalStaged(s.sk, lanes)))
	mcTrials.Add(trials - lastFlushTrials)
	mcFails.Add(hits - lastFlushHits)
	return stats.Proportion{Hits: hits, Trials: trials}, nil
}

// FailFraction returns the measured failure fraction with exactly k nodes
// offline. k >= Total reports 1. An unmeasured point (outside the
// MinK..MaxK window) reports the nearest measured point below it — the
// true curve is nondecreasing in k, so this is a conservative monotone
// extension — or 0 when nothing below was measured.
func (p *Profile) FailFraction(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= p.Total {
		return 1
	}
	for ; k >= 0; k-- {
		if p.Fail[k].Trials > 0 {
			return p.Fail[k].Estimate()
		}
	}
	return 0
}

// FirstObservedFailure returns the smallest offline count whose measured
// failure fraction is nonzero, or 0 when none was observed.
func (p *Profile) FirstObservedFailure() int {
	for k := 1; k <= p.Total; k++ {
		if k < len(p.Fail) && p.Fail[k].Hits > 0 {
			return k
		}
	}
	return 0
}

// AvgNodesToReconstruct returns the expected minimum number of online nodes
// needed for reconstruction — the paper's "average number of nodes capable
// of reconstructing the data" (Tables 1–4). With T the online-count
// threshold, E[T] = Σ_m P(T > m) and P(T > m) is the failure fraction with
// m nodes online, i.e. Total−m offline.
func (p *Profile) AvgNodesToReconstruct() float64 {
	sum := 0.0
	for m := 0; m < p.Total; m++ {
		sum += p.FailFraction(p.Total - m)
	}
	return sum
}

// AvgToReconstructRatio is AvgNodesToReconstruct divided by the data node
// count — the parenthesized ratio the paper prints next to the average
// (e.g. "73.77 (1.53)").
func (p *Profile) AvgToReconstructRatio() float64 {
	if p.Data == 0 {
		return 0
	}
	return p.AvgNodesToReconstruct() / float64(p.Data)
}

// NodesForSuccessProbability returns the minimum number of online nodes
// whose measured reconstruction success probability reaches prob. Table 6
// uses prob = 0.5 ("the minimum number of nodes that provide a 50%
// probability of being able to reconstruct the stripe").
func (p *Profile) NodesForSuccessProbability(prob float64) int {
	for m := 0; m <= p.Total; m++ {
		if 1-p.FailFraction(p.Total-m) >= prob {
			return m
		}
	}
	return p.Total
}

// Overhead returns NodesForSuccessProbability(0.5) divided by the data node
// count — Table 6's overhead column.
func (p *Profile) Overhead() float64 {
	if p.Data == 0 {
		return 0
	}
	return float64(p.NodesForSuccessProbability(0.5)) / float64(p.Data)
}
