package sim

import (
	"context"
	"errors"
	"sync"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/stats"
)

// This file is the one certification driver. Every job — worst-case
// search, failure profile, sampled certification — is a Job: a
// deterministic plan of Units in ordered groups, and a fold of unit results,
// in plan order, into the job's result, whose stopping rule may end a group.
// Job.Run is the only loop; its one parameter is the Runner that computes a
// unit. The in-memory entry points (WorstCaseCtx, FailureProfileCtx,
// SampleStratifiedCtx) pass a LocalRunner; internal/campaign passes the
// same LocalRunner wrapped to skip journaled units and journal fresh ones.

// Unit is one deterministic piece of certification work, a pure function
// of its fields. A unit with Trials == 0 examines every erasure pattern of
// cardinality K (exhaustiveK: stopping sets, or the rank scan where those
// cost more). A Stratified unit draws Trials k-subsets from the RNG stream
// (Seed, K, Stream) through the stratified sampler. Any other is a block of
// the failure profile: Trials random arrival orders from the stream (Seed,
// Stream), each peeled only as far as it decides the points K..MaxK
// (orderSampler).
type Unit struct {
	ID           int // position in plan order: the same plan numbers its units the same way every time
	K            int
	MaxK         int // profile order blocks only: the largest point they answer
	Trials       int64
	Seed, Stream uint64
	Stratified   bool
	MaxFailures  int // cap on the failing sets recorded verbatim
}

// UnitResult is the result of one Unit.
type UnitResult struct {
	Tally    stats.Proportion // failing / examined combinations or trials
	Failures [][]int          // failing sets recorded verbatim: a cardinality's lex-smallest, a block's first witnesses
	// Stratified units only: Tally split by stratum (see SampledBlock),
	// and the trials resolved by structural proof alone.
	Strata   []stats.Proportion
	Screened int64
	// Profile order blocks only: the histogram of the orders' thresholds
	// over the points K..MaxK, MaxK−K+2 entries (orderSampler.sample), the
	// last one the orders that lose data at K offline — Tally's hits.
	Thresholds []int64
}

// ErrEmptyWindow is the Job.Err of a profile or sampled certification whose
// cardinality window, once normalized, holds no cardinality: it would
// certify nothing.
var ErrEmptyWindow = errors.New("sim: empty cardinality window")

// A Runner computes units. Job.Run calls RunUnit from up to Workers()
// goroutines at once; w < Workers() names the calling goroutine, so a
// runner may keep per-goroutine state in a slice.
type Runner interface {
	Workers() int
	RunUnit(ctx context.Context, w int, u Unit) (UnitResult, error)
}

// Job is one certification workload: the plan, and — as Run folds each
// completed unit — the result. Exactly one of WorstCase, Profile and
// Sampled is set, by the constructor.
type Job struct {
	// Groups is the plan. A group's units are independent; groups run in
	// order, because the stopping rule looks at everything before it.
	Groups [][]Unit
	// Err is why the plan ends short of the requested cardinalities (a
	// cardinality out of range or beyond exhaustiveBudget). Run reports
	// it unless a stopping rule ends the job first; a caller that must not
	// start what it cannot finish checks it up front.
	Err error

	WorstCase *WorstCaseResult
	Profile   *Profile
	Sampled   []*SampledResult // one per cardinality, ascending
	Folded    int64            // the work (Work) of the units folded so far

	total int // nodes in the graph
	// fold merges r, the result of unit i of group gi, and returns the
	// group to run next: gi to go on (past gi's last unit: gi+1), or a
	// later one to end gi at unit i, as a stopping rule does.
	fold func(gi, i int, r UnitResult) (next int)
}

// number assigns unit IDs in plan order.
func (j *Job) number() *Job {
	id := 0
	for _, grp := range j.Groups {
		for i := range grp {
			grp[i].ID = id
			id++
		}
	}
	return j
}

// Run executes the job: group by group, each group's units fanned out over
// the runner's workers and folded in plan order as they finish (runGroup).
// The first unit error — cancellation included — cancels the rest of its
// group and is returned; units folded so far stay in the result.
func (j *Job) Run(ctx context.Context, r Runner) error {
	for gi := 0; gi < len(j.Groups); {
		next, err := j.runGroup(ctx, r, gi)
		if err != nil {
			return err
		}
		gi = next
	}
	return j.Err
}

// runGroup runs group gi and returns the group to run next. A unit is
// folded once it and every unit before it are done; a fold that ends the
// group cancels the units running past it, whose results are dropped.
func (j *Job) runGroup(ctx context.Context, r Runner, gi int) (next int, err error) {
	units := j.Groups[gi]
	res := make([]*UnitResult, len(units))
	var mu sync.Mutex
	folded := 0
	next = gi
	err = forBlocksCtx(ctx, r.Workers(), int64(len(units)), func(ctx context.Context, w int, i int64) error {
		ur, err := r.RunUnit(ctx, w, units[i])
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		res[i] = &ur
		for ; next == gi && folded < len(units) && res[folded] != nil; folded++ {
			next = j.fold(gi, folded, *res[folded])
			j.Folded += j.Work(units[folded])
			res[folded] = nil
		}
		if next != gi {
			return errStop
		}
		return nil
	})
	return max(next, gi+1), err
}

// Work returns the number of combinations or trials unit u examines.
func (j *Job) Work(u Unit) int64 {
	if u.Trials > 0 {
		return u.Trials
	}
	c, _ := combin.BinomialInt64(j.total, u.K) // planned, so within exhaustiveBudget
	return c
}

// Accepts reports whether r is a complete, well-formed result of unit u:
// the work adds up to the unit's, a stratified unit's K+1 strata add up to
// its tally, an order block's MaxK−K+2 histogram counts add up to its
// orders and end in its hits, and there are no more recorded failing sets
// than failures, each K ascending node IDs. A durable runner applies it to
// results it did not compute in this process before they reach fold.
func (j *Job) Accepts(u Unit, r UnitResult) bool {
	strata, hist := 0, 0
	switch {
	case u.Stratified:
		strata = u.K + 1
	case u.Trials > 0:
		hist = u.MaxK - u.K + 2
	}
	if len(r.Strata) != strata || strata > 0 && stats.Pool(r.Strata...) != r.Tally ||
		len(r.Thresholds) != hist || hist > 0 && !histogramOf(r.Thresholds, r.Tally) ||
		r.Tally.Trials != j.Work(u) || r.Tally.Hits > r.Tally.Trials || int64(len(r.Failures)) > r.Tally.Hits {
		return false
	}
	for _, set := range r.Failures {
		if len(set) != u.K {
			return false
		}
		for i, v := range set {
			if v < 0 || v >= j.total || i > 0 && v <= set[i-1] {
				return false
			}
		}
	}
	return true
}

// histogramOf reports whether hist's counts are nonnegative, sum to
// tally's trials and end in its hits.
func histogramOf(hist []int64, tally stats.Proportion) bool {
	var sum int64
	for _, n := range hist {
		if n < 0 {
			return false
		}
		sum += n
	}
	return sum == tally.Trials && hist[len(hist)-1] == tally.Hits
}

// blockUnits tiles a trial budget into fixed blocks: block b is trials
// [b·blockSize, (b+1)·blockSize) — the last one short — drawn from stream b.
// tmpl carries the fields the blocks share.
func blockUnits(tmpl Unit, trials, blockSize int64) (units []Unit) {
	for b := int64(0); b*blockSize < trials; b++ {
		tmpl.Trials, tmpl.Stream = min(blockSize, trials-b*blockSize), uint64(b)
		units = append(units, tmpl)
	}
	return units
}

// LocalRunner computes units in this process: one CSR for the job, and per
// worker one sampler of each kind, built on first use and re-aimed from
// unit to unit. An exhaustive unit brings its own enumerators, which read
// the graph itself, and sliced kernels, and spreads its work over the
// runner's worker count (exhaustiveK), so it can run beside the other units
// of its group.
type LocalRunner struct {
	g       *graph.Graph
	csr     *decode.CSR
	workers []localWorker
}

type localWorker struct {
	orders *orderSampler
	strat  *StratifiedSampler
}

// NewLocalRunner returns a runner over g with the given worker count
// (default GOMAXPROCS). Its exhaustive units read g itself, so g must not
// be edited while the runner is in use.
func NewLocalRunner(g *graph.Graph, workers int) *LocalRunner {
	return &LocalRunner{g: g, csr: decode.NewCSR(g), workers: make([]localWorker, defaultWorkers(workers))}
}

func (l *LocalRunner) Workers() int { return len(l.workers) }

func (l *LocalRunner) RunUnit(ctx context.Context, w int, u Unit) (UnitResult, error) {
	lw := &l.workers[w]
	switch {
	case u.Trials == 0:
		kr, err := l.exhaustiveK(ctx, u.K, u.MaxFailures)
		return UnitResult{Tally: stats.Proportion{Hits: kr.FailureCount, Trials: kr.Tested}, Failures: kr.Failures}, err
	case u.Stratified:
		if lw.strat == nil {
			lw.strat = NewStratifiedSampler(l.csr)
		}
		blk, err := lw.strat.SampleBlock(ctx, u.K, u.Trials, u.Seed, u.Stream, u.MaxFailures)
		return UnitResult{Tally: blk.Tally(), Failures: blk.Witnesses, Strata: blk.Strata, Screened: blk.Screened}, err
	}
	if lw.orders == nil {
		lw.orders = newOrderSampler(l.csr)
	}
	hist, err := lw.orders.sample(ctx, u.K, u.MaxK, u.Trials, u.Seed, u.Stream)
	if err != nil {
		return UnitResult{}, err
	}
	return UnitResult{Tally: stats.Proportion{Hits: hist[len(hist)-1], Trials: u.Trials}, Thresholds: hist}, nil
}
