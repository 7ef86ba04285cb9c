package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/stats"
)

// This file implements the archival-scale certification sampler: a
// stratified Monte Carlo estimate of the failure fraction at one erasure
// cardinality, for graphs far beyond the exhaustive rank space
// (C(100000, 5) ≈ 6.9e21). Trials are drawn uniformly; each pattern is
// classified by its erasure structure — the maximum same-check collision
// count — and most patterns are resolved by proof rather than decoding:
//
//   - collision count <= 1: every erased node is the only erasure its
//     checks see, so peeling rule 1 (and rule 2 for erased checks)
//     recovers everything in one step. Provably recoverable, no decode.
//   - otherwise, the rescue certificate: if every erased data node has a
//     present parent check with no other erased member, each is rescued
//     directly. Provably recoverable, no decode.
//
// Only patterns failing both proofs — a small tail at archival scale —
// are decoded, batched 64 at a time through the bit-sliced kernel.
// Because sampling is uniform and strata are tallied after the fact
// (post-stratification), the pooled tally is the plain uniform estimator
// and Wilson intervals apply to it directly.

// Defaults for SampledOptions, following the package option idiom.
const (
	// DefaultSampledEpsilon is the target 95% Wilson CI half-width: the
	// sampler draws blocks until the pooled interval is at least this
	// tight (~19.2k trials when no failure is observed).
	DefaultSampledEpsilon = 1e-4
	// DefaultSampledMaxTrials caps a sampled certification even when the
	// epsilon target is not reached (a failure-rich graph at a loose
	// epsilon would otherwise run unbounded).
	DefaultSampledMaxTrials = 4 << 20
	// DefaultSampledBlock is the trial count of one deterministic Monte
	// Carlo block, profile and sampled certification alike — the unit of
	// parallelism and of campaign sharding. It equals the campaign's
	// default shard size, so an in-memory run and a default campaign over
	// the same seed plan the same blocks.
	DefaultSampledBlock = 65536
)

// sampledSeedDomain separates the sampled certification RNG streams from
// the failure profile's streams, so running both against one seed
// never correlates their draws.
const sampledSeedDomain = 0x5ca1ab1e

// SampledOptions tunes SampleStratifiedCtx.
type SampledOptions struct {
	// Epsilon is the planned-precision target: sampling stops after the
	// first block at which the pooled 95% Wilson CI half-width is <=
	// Epsilon. Default DefaultSampledEpsilon; negative disables the rule
	// (run to MaxTrials).
	Epsilon float64
	// MaxTrials caps the total trials. Default DefaultSampledMaxTrials.
	MaxTrials int64
	// BlockSize is the trials per deterministic block. Default
	// DefaultSampledBlock.
	BlockSize int64
	// MaxWitnesses caps the failing patterns recorded verbatim (the tally
	// stays exact regardless). Default DefaultMaxFailures.
	MaxWitnesses int
	// Workers is the number of goroutines; default GOMAXPROCS. The result
	// is bit-identical at any worker count.
	Workers int
	// Seed drives all sampling; a fixed seed reproduces the result.
	Seed uint64
}

func (o SampledOptions) normalize() SampledOptions {
	if o.Epsilon == 0 {
		o.Epsilon = DefaultSampledEpsilon
	}
	o.MaxTrials = int64Or(o.MaxTrials, DefaultSampledMaxTrials)
	o.BlockSize = int64Or(o.BlockSize, DefaultSampledBlock)
	o.MaxWitnesses = intOr(o.MaxWitnesses, DefaultMaxFailures)
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// SampledRound records the pooled precision after one block: one look of
// the stopping rule.
type SampledRound struct {
	Trials    int64   // cumulative trials after the block
	HalfWidth float64 // pooled 95% Wilson CI half-width at that point
}

// SampledResult is the outcome of a sampled certification at one
// cardinality.
type SampledResult struct {
	K      int
	Tally  stats.Proportion   // pooled failure tally (uniform estimator)
	Strata []stats.Proportion // Strata[s]: trials whose max same-check collision count is s (s capped at K)
	// Screened counts trials resolved by the structural proofs alone —
	// never decoded. The screening rejection rate is Screened/Trials.
	Screened  int64
	Rounds    []SampledRound // precision trajectory, one entry per block drawn
	Witnesses [][]int        // failing patterns (ascending node IDs), capped at MaxWitnesses
}

// Estimate returns the pooled point estimate of the failure fraction.
func (r *SampledResult) Estimate() float64 { return r.Tally.Estimate() }

// Wilson returns the pooled 95% Wilson interval.
func (r *SampledResult) Wilson() (lo, hi float64) { return r.Tally.Wilson(1.96) }

// HalfWidth returns the pooled 95% Wilson CI half-width achieved.
func (r *SampledResult) HalfWidth() float64 { return r.Tally.WilsonHalfWidth(1.96) }

// ScreenRate returns the fraction of trials resolved without decoding.
func (r *SampledResult) ScreenRate() float64 {
	if r.Tally.Trials == 0 {
		return 0
	}
	return float64(r.Screened) / float64(r.Tally.Trials)
}

// SampledBlock is the tally of one deterministic sampled block, the
// result of a stratified Unit. Fixed (graph, k, trials, seed, stream)
// always reproduce the same block.
type SampledBlock struct {
	Strata    []stats.Proportion // index: max same-check collision count, capped at k
	Screened  int64
	Witnesses [][]int
}

// Tally pools the block's strata.
func (b SampledBlock) Tally() stats.Proportion { return stats.Pool(b.Strata...) }

// StratifiedSampler holds the reusable state of the sampled certification
// hot loop: the bit-sliced kernel, the epoch-stamped collision counters,
// and the 64-lane pattern staging buffers. One sampler serves one
// goroutine; after warm-up, SampleBlock's trial loop performs no
// steady-state allocations (witness recording aside).
type StratifiedSampler struct {
	c  *decode.CSR
	sk *decode.SlicedKernel

	// ctr[r] is check r's collision counter packed with the trial that set
	// it, epoch<<32 | erased members of r (+1 if r erased): one word read
	// and written per bump. A word an earlier trial left is below
	// epoch<<32, so it counts as zero without being cleared.
	ctr   []uint64
	epoch uint64

	idx  []int    // current k-subset, unsorted
	seen []uint64 // combin.RandomSubsetUnsorted scratch

	batch     []int32 // staged patterns, lane-major: batch[lane*k : lane*k+k]
	batchLen  int     // staged lane count
	pendStrat []int32 // stratum of each staged lane
}

// NewStratifiedSampler returns a sampler over c. The CSR may be shared
// read-only across samplers.
func NewStratifiedSampler(c *decode.CSR) *StratifiedSampler {
	return &StratifiedSampler{
		c:         c,
		sk:        decode.NewSlicedKernel(c),
		ctr:       make([]uint64, c.Total),
		seen:      make([]uint64, c.Words),
		pendStrat: make([]int32, decode.Lanes),
	}
}

// SampleBlock draws trials patterns of cardinality k from the
// deterministic stream (seed, k, stream) and returns the stratified
// tally. Cancellation is honored at combination-chunk boundaries. Each
// pattern is drawn on the PCG itself and screened in draw order; only a
// pattern staged for the sliced kernel is sorted, so the block's staged
// lanes and witnesses are ascending as RandomSubset would draw them.
func (s *StratifiedSampler) SampleBlock(ctx context.Context, k int, trials int64, seed, stream uint64, maxWitnesses int) (SampledBlock, error) {
	total := int(s.c.Total)
	if k < 1 || k > total {
		return SampledBlock{}, fmt.Errorf("sim: cardinality %d out of range for %d nodes", k, total)
	}
	reg := Metrics()
	mcTrials := reg.Counter(MetricMCTrials)
	mcFails := reg.Counter(MetricMCFailures)

	if cap(s.idx) < k {
		s.idx = make([]int, k)
		s.batch = make([]int32, decode.Lanes*k)
	}
	s.idx = s.idx[:k]
	s.batchLen = 0

	src := rand.NewPCG(seed^sampledSeedDomain, uint64(k)<<32|stream)
	blk := SampledBlock{Strata: make([]stats.Proportion, k+1)}
	var done, hits, lastFlushTrials, lastFlushHits int64
	flushHits := func() {
		// Kernel batches settle lagging trials; recompute hits from strata.
		hits = 0
		for _, p := range blk.Strata {
			hits += p.Hits
		}
	}
	for i := int64(0); i < trials; i++ {
		if i%cancelCheckInterval == 0 {
			if ctx.Err() != nil {
				return SampledBlock{}, ctx.Err()
			}
			flushHits()
			mcTrials.Add(done - lastFlushTrials)
			mcFails.Add(hits - lastFlushHits)
			lastFlushTrials, lastFlushHits = done, hits
		}
		combin.RandomSubsetUnsorted(s.idx, total, src, s.seen)
		strat, certified := s.classify(k)
		if certified {
			blk.Strata[strat].Add(0, 1)
			blk.Screened++
			done++
			continue
		}
		lane := s.batchLen
		dst := s.batch[lane*k : lane*k+k]
		for j, v := range s.idx {
			dst[j] = int32(v)
		}
		slices.Sort(dst)
		s.pendStrat[lane] = int32(strat)
		s.batchLen++
		if s.batchLen == decode.Lanes {
			s.flushBatch(&blk, k, maxWitnesses)
			done += decode.Lanes
		}
	}
	s.flushBatch(&blk, k, maxWitnesses)
	flushHits()
	mcTrials.Add(trials - lastFlushTrials)
	mcFails.Add(hits - lastFlushHits)
	return blk, nil
}

// classify stamps the collision counters for the current k-subset and
// returns its stratum (the maximum same-check collision count, capped at
// k) plus whether one of the structural recoverability proofs applies.
// Neither depends on the order of idx.
func (s *StratifiedSampler) classify(k int) (strat int, certified bool) {
	if s.epoch == math.MaxUint32 {
		clear(s.ctr) // the epoch would leave its 32 bits: start over
		s.epoch = 0
	}
	s.epoch++
	base := s.epoch << 32
	data := int(s.c.Data)
	hi := base
	for _, v := range s.idx {
		for _, r := range s.c.Parents(int32(v)) {
			hi = max(hi, s.bump(r, base))
		}
		if v >= data {
			hi = max(hi, s.bump(int32(v), base))
		}
	}
	if hi <= base+1 {
		// Every erased node is the sole erasure its checks see: rule 1
		// rescues each erased data node directly, rule 2 recomputes each
		// erased check from its fully present members.
		return 1, true
	}
	strat = min(int(hi-base), k)
	// Rescue certificate: every erased data node has a parent check with
	// collision count exactly 1 — that check is present (an erased check
	// would count itself too) and sees no other erasure, so it rescues the
	// node directly regardless of peel order.
	for _, v := range s.idx {
		if v >= data {
			continue
		}
		rescued := false
		for _, r := range s.c.Parents(int32(v)) {
			if s.ctr[r] == base+1 {
				rescued = true
				break
			}
		}
		if !rescued {
			return strat, false
		}
	}
	return strat, true
}

// bump increments check r's collision counter under the trial whose epoch
// word is base and returns the packed word.
func (s *StratifiedSampler) bump(r int32, base uint64) uint64 {
	w := max(s.ctr[r], base) + 1
	s.ctr[r] = w
	return w
}

// flushBatch decodes the staged lanes through the bit-sliced kernel and
// tallies each into its stratum.
func (s *StratifiedSampler) flushBatch(blk *SampledBlock, k, maxWitnesses int) {
	n := s.batchLen
	if n == 0 {
		return
	}
	s.sk.Reset()
	active := ^uint64(0)
	if n < decode.Lanes {
		active = (uint64(1) << n) - 1
	}
	s.sk.SetActive(active)
	for lane := 0; lane < n; lane++ {
		for _, v := range s.batch[lane*k : lane*k+k] {
			s.sk.Erase(int(v), uint64(1)<<lane)
		}
	}
	recovered := s.sk.Eval()
	for lane := 0; lane < n; lane++ {
		var hit int64
		if recovered&(uint64(1)<<lane) == 0 {
			hit = 1
			if len(blk.Witnesses) < maxWitnesses {
				w := make([]int, k)
				for i, v := range s.batch[lane*k : lane*k+k] {
					w[i] = int(v)
				}
				blk.Witnesses = append(blk.Witnesses, w)
			}
		}
		blk.Strata[s.pendStrat[lane]].Add(hit, 1)
	}
	s.batchLen = 0
}

// SampleStratifiedCtx runs the sampled certification of cardinality k:
// deterministic blocks drawn in order until the first block after which
// the pooled 95% Wilson CI half-width reaches opts.Epsilon (or until
// opts.MaxTrials is exhausted). The result is bit-identical for a fixed
// seed at any worker count: blocks are fixed RNG streams, tallies are
// integer sums, and the blocks are folded — witnesses merged, the
// stopping rule evaluated — in block order, so where sampling stops
// depends on the blocks up to it alone.
func SampleStratifiedCtx(ctx context.Context, g *graph.Graph, k int, opts SampledOptions) (*SampledResult, error) {
	if k < 1 || k > g.Total {
		return nil, fmt.Errorf("sim: cardinality %d out of range for %d nodes", k, g.Total)
	}
	j := NewSampledJob(g, k, k, opts)
	if err := j.Run(ctx, NewLocalRunner(g, opts.Workers)); err != nil {
		return nil, err
	}
	return j.Sampled[0], nil
}

// NewSampledJob plans the sampled certification of cardinalities
// minK..maxK: one group per cardinality, one unit per block of the
// opts.MaxTrials budget. A cardinality's group ends at the first block
// after which its pooled half-width is within opts.Epsilon. An empty
// window plans nothing and sets Job.Err.
func NewSampledJob(g *graph.Graph, minK, maxK int, opts SampledOptions) *Job {
	opts = opts.normalize()
	j := &Job{total: g.Total}
	if minK > maxK {
		j.Err = fmt.Errorf("%w: cardinalities %d..%d", ErrEmptyWindow, minK, maxK)
	}
	for k := minK; k <= maxK; k++ {
		j.Sampled = append(j.Sampled, &SampledResult{K: k, Strata: make([]stats.Proportion, k+1)})
		tmpl := Unit{K: k, Seed: opts.Seed, Stratified: true, MaxFailures: opts.MaxWitnesses}
		j.Groups = append(j.Groups, blockUnits(tmpl, opts.MaxTrials, opts.BlockSize))
	}
	j.fold = func(gi, _ int, r UnitResult) int {
		sr := j.Sampled[gi]
		for s, p := range r.Strata {
			sr.Strata[s].Add(p.Hits, p.Trials)
		}
		sr.Screened += r.Screened
		sr.Witnesses = append(sr.Witnesses, r.Failures[:min(len(r.Failures), opts.MaxWitnesses-len(sr.Witnesses))]...)
		sr.Tally = stats.Pool(sr.Strata...)
		sr.Rounds = append(sr.Rounds, SampledRound{Trials: sr.Tally.Trials, HalfWidth: sr.HalfWidth()})
		if opts.Epsilon > 0 && sr.HalfWidth() <= opts.Epsilon {
			return gi + 1
		}
		return gi
	}
	return j.number()
}
