package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"

	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/reliability"
	"tornado/internal/stats"
)

// ProfileOptions tunes the reconstruction-failure profile (paper §3: "the
// fraction of failed reconstructions for a large number of test cases").
type ProfileOptions struct {
	// Trials is the number of random arrival orders drawn. Every sampled
	// point is read off all of them, so it is also each sampled point's
	// trial count. The paper used 10–34 million per point (962,144,153
	// cases, 34 CPU-days); the default of DefaultProfileTrials preserves
	// the curve shape on a laptop.
	Trials int64
	// MinK and MaxK bound the examined offline counts; MaxK=0 means the
	// whole range up to Total. The window is a view: a point's tally does
	// not depend on it. An empty window is an error (ErrEmptyWindow).
	MinK, MaxK int
	// Workers is the number of goroutines; default GOMAXPROCS.
	Workers int
	// Seed drives all sampling; a fixed seed reproduces the profile.
	Seed uint64
}

func (o ProfileOptions) normalize(total int) ProfileOptions {
	o.Trials = int64Or(o.Trials, DefaultProfileTrials)
	o.MinK = intOr(o.MinK, 1)
	if o.MaxK <= 0 || o.MaxK > total {
		o.MaxK = total
	}
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// Profile holds the measured failure fraction for each number of offline
// nodes. Entry k answers: with exactly k randomly chosen devices offline,
// what fraction of cases lose data? The sampled entries share one set of
// arrival orders (see NewProfileJob): each is exactly Binomial(Trials, p_k),
// but they are correlated across k. Exact entries come only from a
// worst-case search folded in by AddExact.
type Profile struct {
	GraphName string
	Total     int // nodes in the graph
	Data      int // data nodes
	Fail      []stats.Proportion
	Exact     []bool // Fail[k] is a worst-case search's count over C(Total, k) rather than a sample
}

// FailureProfileCtx measures g's reconstruction-failure profile, with
// cancellation checked at combination-chunk boundaries inside each worker.
func FailureProfileCtx(ctx context.Context, g *graph.Graph, opts ProfileOptions) (*Profile, error) {
	j := NewProfileJob(g, opts, 0)
	if err := j.Run(ctx, NewLocalRunner(g, opts.Workers)); err != nil {
		return nil, err
	}
	return j.Profile, nil
}

// NewProfileJob plans the failure profile of g as one group of arrival-order
// blocks. Every point is read off one shared set of opts.Trials random
// arrival orders: an order's last k nodes are a uniform k-subset for every
// k, and decodability is monotone, so with T the order's threshold — its
// shortest decodable prefix — k offline nodes lose data exactly when
// T > Total−k. The orders come in fixed blocks of shardSize, block b
// shuffled from RNG stream b, so the block size is part of what defines the
// result; each block is one unit returning the histogram of its orders' T
// over the window's points. shardSize 0 means DefaultSampledBlock. An empty
// window plans nothing and sets Job.Err. Exact points are not planned here:
// fold a worst-case search in with AddExact, or plan both with
// NewFoldedProfileJob.
func NewProfileJob(g *graph.Graph, opts ProfileOptions, shardSize int64) *Job {
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

	j := &Job{total: g.Total, Profile: p}
	if opts.MinK > opts.MaxK {
		j.Err = fmt.Errorf("%w: offline counts %d..%d of %d nodes", ErrEmptyWindow, opts.MinK, opts.MaxK, g.Total)
		return j
	}
	blockSize := int64Or(shardSize, DefaultSampledBlock)
	j.Groups = [][]Unit{blockUnits(Unit{K: opts.MinK, MaxK: opts.MaxK, Seed: opts.Seed}, opts.Trials, blockSize)}
	hist := make([]int64, opts.MaxK-opts.MinK+2) // the folded blocks' pooled histogram
	var orders int64
	j.fold = func(gi, _ int, r UnitResult) int {
		for t, n := range r.Thresholds {
			hist[t] += n
		}
		orders += r.Tally.Trials
		// Point k fails in the orders of hist[MaxK−k+1:]: sum them from the
		// top, where hist's last entry is the orders undecoded at MinK.
		var fails int64
		for k := opts.MinK; k <= opts.MaxK; k++ {
			fails += hist[opts.MaxK-k+1]
			p.Fail[k] = stats.Proportion{Hits: fails, Trials: orders}
		}
		return gi
	}
	return j.number()
}

// NewFoldedProfileJob plans the KeepGoing worst-case search to DefaultMaxK,
// then NewProfileJob's blocks, and folds the search in: its Profile is
// FailureProfileCtx's after AddExact(WorstCaseCtx(KeepGoing)), bit for bit.
// Cardinalities past exhaustiveBudget are left out quietly (n=10,000: k ≤
// 2). The search's units record no failing sets: the profile keeps counts
// only. Campaigns run it; a caller already holding a search calls AddExact.
func NewFoldedProfileJob(g *graph.Graph, opts ProfileOptions, shardSize int64) *Job {
	j := NewProfileJob(g, opts, shardSize)
	if j.Err != nil {
		return j
	}
	wc := NewWorstCaseJob(g, WorstCaseOptions{KeepGoing: true})
	for _, units := range wc.Groups {
		for i := range units {
			units[i].MaxFailures = 0
		}
	}
	n, sampled := len(wc.Groups), j.fold
	j.Groups = append(wc.Groups, j.Groups...)
	j.fold = func(gi, i int, r UnitResult) int {
		if gi < n {
			return wc.fold(gi, i, r)
		}
		next := sampled(gi-n, i, r) + n
		j.Err = j.Profile.AddExact(*wc.WorstCase)
		return next
	}
	return j.number()
}

// AddExact folds a worst-case search of the profile's graph into it: every
// cardinality the search examined becomes an exact point, its failure count
// over C(Total, k), in place of any sampled one. A search whose tested count
// at some k is not C(Total, k) examined another graph; AddExact refuses it
// and leaves the profile as it was.
func (p *Profile) AddExact(wc WorstCaseResult) error {
	for _, kr := range wc.PerK {
		space, err := rankSpace(p.Total, kr.K)
		if err == nil && kr.Tested != space {
			err = fmt.Errorf("sim: worst case tested %d patterns at k=%d, but C(%d,%d) = %d: it searched another graph", kr.Tested, kr.K, p.Total, kr.K, space)
		}
		if err != nil {
			return err
		}
	}
	for _, kr := range wc.PerK {
		p.Fail[kr.K] = stats.Proportion{Hits: kr.FailureCount, Trials: kr.Tested}
		p.Exact[kr.K] = true
	}
	return nil
}

// arrivalStreamTag marks the profile's arrival-order RNG streams: block b
// draws from PCG stream (seed, arrivalStreamTag|b), apart from every
// k-keyed stream of the stratified sampler.
const arrivalStreamTag = 0xA221 << 48

// orderSampler is the reusable state of the profile's order loop: the
// shuffled order, a batch of copies of up to Lanes of them, and the
// SlicedKernel that reads the batch's thresholds in one Thresholds word.
// One sampler serves one goroutine.
type orderSampler struct {
	order []int
	sk    *decode.SlicedKernel
	lanes [][]int // the batch: copies of up to Lanes orders
	ts    []int   // the batch's thresholds, one per lane
}

func newOrderSampler(c *decode.CSR) *orderSampler {
	s := &orderSampler{
		order: make([]int, c.Total),
		sk:    decode.NewSlicedKernel(c),
		lanes: make([][]int, decode.Lanes),
		ts:    make([]int, decode.Lanes),
	}
	for L := range s.lanes {
		s.lanes[L] = make([]int, c.Total)
	}
	return s
}

// sample draws n random arrival orders — each a shuffle of the node IDs
// making rand.Shuffle's swaps, the block starting from the identity, all
// from stream (seed, arrivalStreamTag|stream) — and returns the histogram
// of their thresholds T over the points minK..maxK: hist[i] counts the
// orders with T = Total−maxK+i. Its first entry holds every order that
// decodes with maxK nodes still to arrive, its last, maxK−minK+1, every
// order still undecoded with minK to arrive: those lose data at minK
// offline, and they are what the progress counters count as failures. No order is peeled outside that
// window (Thresholds' from/limit clamp), so the block is as cheap as its
// window is narrow. The orders are read a batch at a time (flush); every
// cancellation check flushes the batch first, so the progress counters
// count every order drawn before it.
func (s *orderSampler) sample(ctx context.Context, minK, maxK int, n int64, seed, stream uint64) ([]int64, error) {
	total := len(s.order)
	if minK < 1 || maxK < minK || maxK > total {
		return nil, fmt.Errorf("sim: cardinalities %d..%d out of range for %d nodes", minK, maxK, total)
	}
	reg := Metrics()
	mcTrials := reg.Counter(MetricMCTrials)
	mcFails := reg.Counter(MetricMCFailures)
	from, limit := total-maxK, total-minK
	hist := make([]int64, maxK-minK+2)
	last := &hist[len(hist)-1]
	for i := range s.order {
		s.order[i] = i
	}
	src := rand.NewPCG(seed, arrivalStreamTag|stream)
	var lastFlushTrials, lastFlushHits int64
	batch := 0
	for i := int64(0); i < n; i++ {
		if i%cancelCheckInterval == 0 {
			s.flush(batch, from, limit, hist)
			batch = 0
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			mcTrials.Add(i - lastFlushTrials)
			mcFails.Add(*last - lastFlushHits)
			lastFlushTrials, lastFlushHits = i, *last
		}
		shuffle(src, s.order)
		copy(s.lanes[batch], s.order)
		if batch++; batch == decode.Lanes {
			s.flush(batch, from, limit, hist)
			batch = 0
		}
	}
	s.flush(batch, from, limit, hist)
	mcTrials.Add(n - lastFlushTrials)
	mcFails.Add(*last - lastFlushHits)
	return hist, nil
}

// shuffle permutes p exactly as rand.New(src).Shuffle(len(p), swap) does:
// Fisher–Yates from the top, each index drawn as math/rand/v2's uint64n
// draws it (a mask when the bound is a power of two, otherwise Lemire's
// multiply with rejection), so it consumes the same stream and makes the
// same swaps. It calls the concrete PCG directly, not through the Source
// interface and a swap closure.
func shuffle(src *rand.PCG, p []int) {
	for i := len(p) - 1; i > 0; i-- {
		n := uint64(i + 1)
		var j uint64
		if n&(n-1) == 0 {
			j = src.Uint64() & (n - 1)
		} else {
			hi, lo := bits.Mul64(src.Uint64(), n)
			if lo < n {
				thresh := -n % n
				for lo < thresh {
					hi, lo = bits.Mul64(src.Uint64(), n)
				}
			}
			j = hi
		}
		p[i], p[j] = p[j], p[i]
	}
}

// flush reads the thresholds of the first batch lanes with one
// SlicedKernel.Thresholds word into hist.
func (s *orderSampler) flush(batch, from, limit int, hist []int64) {
	if batch == 0 {
		return
	}
	s.sk.Thresholds(s.lanes[:batch], from, limit, s.ts)
	for _, t := range s.ts[:batch] {
		hist[t-from]++
	}
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

// FullWindow reports whether every offline count 1..Total was measured.
// The whole-curve summaries — AvgNodesToReconstruct, the overhead, a
// SystemFailure over FailFraction — read FailFraction at every k, which
// outside the window is 0 or a carried point: they mean something only
// over the full window.
func (p *Profile) FullWindow() bool {
	for k := 1; k <= p.Total; k++ {
		if k >= len(p.Fail) || p.Fail[k].Trials == 0 {
			return false
		}
	}
	return true
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
// m nodes online, i.e. Total−m offline. In a profile with no exact points
// folded in (AddExact), every point is read off one set of arrival orders,
// so the sum is the plain mean of those orders' thresholds; a folded point
// replaces its sampled term with the exact one.
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

// Report is the summary every binary prints of a profile: graph, first
// failure (or, when no point failed, the points searched) and, over the
// full window only (else a notice), the average nodes to reconstruct, the
// 50% and 99% success points and P(fail) at AFR 1% (Eq. 3), certified only
// with a worst case folded in.
func (p *Profile) Report() string {
	b := fmt.Appendf(nil, "graph:                    %s\n", p.GraphName)
	if k := p.FirstObservedFailure(); k > 0 {
		b = fmt.Appendf(b, "first observed failure:   %d offline nodes\n", k)
	} else {
		b = fmt.Appendf(b, "first observed failure:   none observed (%s offline nodes searched)\n", p.searched())
	}
	if !p.FullWindow() {
		b = fmt.Appendf(b, "avg nodes, 50%%/99%% success and P(fail) need the full window (-mink 1 -maxk %d)\n", p.Total)
		return string(b)
	}
	b = fmt.Appendf(b, "avg nodes to reconstruct: %.2f (%.2f)\n", p.AvgNodesToReconstruct(), p.AvgToReconstructRatio())
	b = fmt.Appendf(b, "nodes for 50%% success:    %d (overhead %.2f)\n", p.NodesForSuccessProbability(0.5), p.Overhead())
	b = fmt.Appendf(b, "nodes for 99%% success:    %d\n", p.NodesForSuccessProbability(0.99))
	b = fmt.Appendf(b, "P(fail) at AFR 1%%:        %.4g\n", reliability.SystemFailure(p.Total, 0.01, p.FailFraction))
	return string(b)
}

// searched lists the points the profile measured as ascending runs, "4..8"
// or "1..5, 8".
func (p *Profile) searched() string {
	var runs []string
	for k := 1; k < len(p.Fail); k++ {
		if p.Fail[k].Trials == 0 {
			continue
		}
		lo := k
		for k+1 < len(p.Fail) && p.Fail[k+1].Trials > 0 {
			k++
		}
		if lo == k {
			runs = append(runs, fmt.Sprint(k))
		} else {
			runs = append(runs, fmt.Sprintf("%d..%d", lo, k))
		}
	}
	return strings.Join(runs, ", ")
}
