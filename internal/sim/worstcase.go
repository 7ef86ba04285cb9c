// Package sim implements the paper's automated testing system (§3): the
// exhaustive combinatorial worst-case search that finds the minimum number
// of lost nodes causing data loss, and the Monte Carlo reconstruction-
// failure profiles that estimate the fraction of failed reconstructions for
// each number of offline devices. All of them are Jobs (job.go): plans of
// deterministic units — every pattern of one cardinality, answered from the
// graph's stopping sets with the bit-sliced rank scan as the fallback
// (stopping.go, sliced.go), or a fixed block of the trial stream — that one
// driver fans out over goroutines.
//
// Every long-running entry point takes a context (WorstCaseCtx,
// FailureProfileCtx, SampleStratifiedCtx, SimulateLifetimeCtx): workers
// check cancellation between chunks of work.
package sim

import (
	"context"
	"fmt"
	"slices"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
)

// WorstCaseOptions tunes the exhaustive search.
type WorstCaseOptions struct {
	// MaxK is the largest erasure cardinality examined (the paper searched
	// (96 choose 1) through (96 choose 6)). Default DefaultMaxK.
	MaxK int
	// MaxFailures caps how many failing sets are recorded verbatim (the
	// total count is always exact). Default DefaultMaxFailures.
	MaxFailures int
	// Workers is the number of goroutines; default GOMAXPROCS.
	Workers int
	// KeepGoing examines all cardinalities up to MaxK even after a failing
	// one is found (the default stops at the first failing cardinality,
	// which defines the worst case).
	KeepGoing bool
}

func (o WorstCaseOptions) normalize() WorstCaseOptions {
	o.MaxK = intOr(o.MaxK, DefaultMaxK)
	o.MaxFailures = intOr(o.MaxFailures, DefaultMaxFailures)
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// KResult reports the exhaustive examination of one erasure cardinality.
type KResult struct {
	K            int
	Tested       int64   // combinations examined (= C(total, k))
	FailureCount int64   // combinations that lost data
	Failures     [][]int // the lexicographically smallest failing sets, up to MaxFailures (worker-count independent)
}

// WorstCaseResult summarizes a search.
type WorstCaseResult struct {
	// FirstFailure is the smallest cardinality that lost data — the
	// paper's headline fault-tolerance metric ("first failure"). Zero when
	// no failure was found up to MaxK.
	FirstFailure int
	Found        bool
	PerK         []KResult // one entry per examined cardinality, ascending
	Tested       int64     // total combinations examined
}

// FailureCountAt returns the exact failure count recorded for cardinality
// k, or 0 when k was not examined.
func (r WorstCaseResult) FailureCountAt(k int) int64 {
	for _, kr := range r.PerK {
		if kr.K == k {
			return kr.FailureCount
		}
	}
	return 0
}

// WorstCaseCtx exhaustively searches erasure combinations of increasing
// cardinality for the graph's worst-case failure scenario (paper §3:
// "(96 choose 1 lost block) through (96 choose 6)"): it runs
// NewWorstCaseJob on a LocalRunner. The result is the same at any worker
// count. Cancellation returns the cardinalities completed so far and
// ctx.Err().
func WorstCaseCtx(ctx context.Context, g *graph.Graph, opts WorstCaseOptions) (WorstCaseResult, error) {
	j := NewWorstCaseJob(g, opts)
	err := j.Run(ctx, NewLocalRunner(g, opts.Workers))
	return *j.WorstCase, err
}

// ExhaustiveKCtx examines every erasure combination of exactly k of the
// graph's nodes, returning the exact failure count and up to maxFailures
// recorded failing sets: one unit of the worst-case job. The result is
// bit-identical at any worker count.
func ExhaustiveKCtx(ctx context.Context, g *graph.Graph, k, maxFailures, workers int) (KResult, error) {
	return NewLocalRunner(g, workers).exhaustiveK(ctx, k, maxFailures)
}

// NewWorstCaseJob plans the worst-case search of g: one group per
// cardinality 1..MaxK, ascending, each a single exhaustive unit. The search
// stops at the first failing cardinality unless opts.KeepGoing. WorstCaseCtx
// runs it in memory; campaigns journal it.
func NewWorstCaseJob(g *graph.Graph, opts WorstCaseOptions) *Job {
	opts = opts.normalize()
	j := &Job{total: g.Total, WorstCase: &WorstCaseResult{}}
	for k := 1; k <= opts.MaxK; k++ {
		if _, err := exhaustiveSpace(g.Total, k); err != nil {
			j.Err = err
			break
		}
		j.Groups = append(j.Groups, []Unit{{K: k, MaxFailures: opts.MaxFailures}})
	}
	j.fold = func(gi, _ int, r UnitResult) int {
		kr := KResult{K: j.Groups[gi][0].K, Tested: r.Tally.Trials, FailureCount: r.Tally.Hits, Failures: r.Failures}
		if j.WorstCase.add(kr, opts.KeepGoing) {
			j.Err = nil // the cardinalities the plan stops short of are never reached
			return len(j.Groups)
		}
		return gi
	}
	return j.number()
}

// add folds the next cardinality into the search and reports whether the
// search stops there: at the first failing cardinality, unless keepGoing.
func (wc *WorstCaseResult) add(kr KResult, keepGoing bool) (stop bool) {
	wc.PerK = append(wc.PerK, kr)
	wc.Tested += kr.Tested
	if kr.FailureCount > 0 && !wc.Found {
		wc.Found, wc.FirstFailure = true, kr.K
		return !keepGoing
	}
	return false
}

// mergeRanges folds the rank ranges that tile cardinality k into its
// KResult.
func mergeRanges(k int, res []RangeResult, maxFailures int) KResult {
	kr := KResult{K: k}
	for _, r := range res {
		kr.Tested += r.Tested
		kr.FailureCount += r.FailureCount
		kr.Failures = append(kr.Failures, r.Failures...)
	}
	// Each range keeps its lexicographically smallest failures (up to
	// maxFailures), so their union contains the global lex-smallest
	// maxFailures: sorting then truncating yields a canonical prefix that is
	// independent of the tiling, the worker count and where a run was
	// interrupted.
	slices.SortFunc(kr.Failures, slices.Compare)
	if len(kr.Failures) > maxFailures {
		kr.Failures = kr.Failures[:maxFailures:maxFailures]
	}
	return kr
}

// exhaustiveBudget bounds the patterns of one exhaustive cardinality:
// 2^20 blocks of DefaultSampledBlock, about 6.9e10 (C(96,7) ≈ 1.1e10 fits,
// C(96,8) does not). Stopping sets usually answer far below it, but a
// cardinality they cannot answer runs the rank scan, and one beyond the
// budget would scan for hours; it is planned as a sampled certification
// instead.
const exhaustiveBudget = 1 << 20 * DefaultSampledBlock

// exhaustiveSpace returns C(total, k), or why cardinality k cannot be
// examined exhaustively: out of range, beyond int64, or beyond
// exhaustiveBudget.
func exhaustiveSpace(total, k int) (int64, error) {
	space, err := rankSpace(total, k)
	if err == nil && space > exhaustiveBudget {
		err = fmt.Errorf("sim: C(%d,%d) = %d is beyond the exhaustive budget of %d patterns (%w); use the sampled certification spec",
			total, k, space, int64(exhaustiveBudget), combin.ErrRankOverflow)
	}
	return space, err
}

// rankSpace returns C(total, k), or why cardinality k cannot be scanned
// exhaustively.
func rankSpace(total, k int) (int64, error) {
	if k < 1 || k > total {
		return 0, fmt.Errorf("sim: cardinality %d out of range for %d nodes", k, total)
	}
	c, ok := combin.BinomialInt64(total, k)
	if !ok {
		return 0, fmt.Errorf("sim: C(%d,%d) exceeds the exhaustive rank space (%w); use the sampled certification spec for archival-scale graphs", total, k, combin.ErrRankOverflow)
	}
	return c, nil
}

// RangeResult reports an exhaustive scan of one contiguous rank range.
type RangeResult struct {
	Tested       int64   // combinations examined (= hi - lo)
	FailureCount int64   // combinations that lost data
	Failures     [][]int // the lexicographically smallest failing sets of the range, up to maxFailures, ascending
}

// ScanRangeCtx examines every erasure combination of cardinality k whose
// revolving-door rank (combin.GrayRank) lies in [lo, hi), single-threaded,
// recording the range's lexicographically smallest failing sets (up to
// maxFailures). Patterns are evaluated 64 per machine word by one
// decode.SlicedKernel (sliced.go). It is the fallback of the cardinalities
// stopping sets cannot answer within budget, and their oracle.
//
// ScanRangeCtx is deterministic in its arguments: re-scanning the same
// range always reproduces the same result, and ranges tiling
// [0, C(total,k)) together examine every combination exactly once.
// Cancellation is honored at combination-chunk boundaries, and progress
// counters are flushed to Metrics() at the same cadence.
func ScanRangeCtx(ctx context.Context, g *graph.Graph, k int, lo, hi int64, maxFailures int) (RangeResult, error) {
	return scanRange(ctx, decode.NewCSR(g), k, lo, hi, maxFailures)
}

// recordFailure maintains fs as the lexicographically smallest failing sets
// seen so far, ascending, capped at maxFailures. Keeping the lex-smallest
// (rather than the first maxFailures in revolving-door scan order) makes
// the recorded sets a pure function of the range — merging any tiling of
// [0, C(total,k)) reproduces the same global prefix regardless of worker
// count, and the same prefix the stopping-set closure records.
func recordFailure(fs [][]int, idx []int, maxFailures int) [][]int {
	if maxFailures <= 0 {
		return fs
	}
	pos, _ := slices.BinarySearchFunc(fs, idx, slices.Compare)
	if pos == len(fs) {
		if len(fs) == maxFailures {
			return fs
		}
		return append(fs, slices.Clone(idx))
	}
	fs = slices.Insert(fs, pos, slices.Clone(idx))
	if len(fs) > maxFailures {
		fs = fs[:maxFailures]
	}
	return fs
}
