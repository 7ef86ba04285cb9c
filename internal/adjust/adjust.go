// Package adjust implements the paper's feedback-based graph adjustment
// procedure (§3.3): run the exhaustive worst-case test at the first failing
// cardinality, identify the critical left node involved in the most failure
// sets, move one of its edges from the most-implicated check to a check not
// involved in any failure, and re-test. In the paper this reliably raised
// the first failure of screened Tornado graphs from 4 lost nodes to 5.
package adjust

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"tornado/internal/defect"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

// Options tunes the adjustment loop.
type Options struct {
	// MaxRounds bounds the number of rewires attempted while clearing one
	// cardinality. Default 16.
	MaxRounds int
	// MaxFailures caps the failure sets collected per test round. Default 256.
	MaxFailures int
	// Workers is passed to the exhaustive search; default GOMAXPROCS.
	Workers int
}

func (o *Options) setDefaults() {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 16
	}
	if o.MaxFailures <= 0 {
		o.MaxFailures = 256
	}
}

// Rewire records one adjustment step.
type Rewire struct {
	Left int // the critical left node adjusted
	From int // the implicated check the edge was removed from
	To   int // the uninvolved replacement check
}

// Report describes an adjustment run.
type Report struct {
	K               int      // cardinality being cleared
	InitialFailures int64    // failing sets before adjustment
	FinalFailures   int64    // failing sets in the returned graph
	Rounds          int      // test rounds executed
	Rewires         []Rewire // applied steps (of the returned best graph's lineage)
	Cleared         bool     // no failures remain at cardinality K
}

// ClearKCtx attempts to eliminate every failing erasure set of cardinality
// k by iterative rewiring. It returns the best graph found (fewest failures
// at k; the input graph is not modified) together with a report. Cleared
// is false when the loop runs out of rounds or candidates — the paper notes
// success "is ultimately related to the degree of the graph". The
// exhaustive re-tests honor ctx and the rewire loop checks it between
// rounds, so a canceled adjustment returns within one test round.
func ClearKCtx(ctx context.Context, g *graph.Graph, k int, opts Options, rng *rand.Rand) (*graph.Graph, Report, error) {
	opts.setDefaults()
	kr, err := sim.ExhaustiveKCtx(ctx, g, k, opts.MaxFailures, opts.Workers)
	if err != nil {
		return nil, Report{K: k}, err
	}
	return clearK(ctx, g, kr, opts, rng)
}

// clearK is ClearKCtx from the first test round on: kr is the exhaustive
// examination of g at the cardinality to clear, which the caller has
// already paid for.
func clearK(ctx context.Context, g *graph.Graph, kr sim.KResult, opts Options, rng *rand.Rand) (*graph.Graph, Report, error) {
	k := kr.K
	rep := Report{K: k, InitialFailures: kr.FailureCount, FinalFailures: kr.FailureCount, Rounds: 1}

	work := g.Clone()
	best := work.Clone()
	bestCount := kr.FailureCount
	var bestRewires []Rewire
	var lineage []Rewire

	for round := 0; kr.FailureCount > 0 && round < opts.MaxRounds; round++ {
		rw, ok, err := pickRewire(ctx, work, kr.Failures, rng)
		if err != nil {
			return nil, rep, err
		}
		if !ok {
			break // insufficient replacement candidates (paper §3.3)
		}
		work.RewireEdge(rw.Left, rw.From, rw.To)

		krNew, err := sim.ExhaustiveKCtx(ctx, work, k, opts.MaxFailures, opts.Workers)
		if err != nil {
			return nil, rep, err
		}
		rep.Rounds++
		if krNew.FailureCount > kr.FailureCount {
			// The rewire made things worse: undo it so work never drifts
			// from its recorded lineage, and pick again from the previous
			// failure sets (the rng has advanced, so the next pick can
			// land elsewhere).
			work.RewireEdge(rw.Left, rw.To, rw.From)
			continue
		}
		lineage = append(lineage, rw)
		kr = krNew
		if kr.FailureCount < bestCount {
			bestCount = kr.FailureCount
			best = work.Clone()
			bestRewires = append([]Rewire(nil), lineage...)
		}
	}

	rep.FinalFailures = bestCount
	rep.Rewires = bestRewires
	rep.Cleared = bestCount == 0
	return best, rep, nil
}

// ImproveCtx finds the graph's first failing cardinality (searching up to
// maxK) and repeatedly clears it, raising the first failure point until
// either maxK is tolerated or adjustment stalls. It returns the improved
// graph and the reports of each cleared cardinality. Cancellation is
// threaded through every exhaustive test. No cardinality of a graph is
// examined twice: the scan that finds a failing cardinality is clearK's
// first test round, and the round that shows it cleared stands when the
// rewired graph re-earns the lower ones.
func ImproveCtx(ctx context.Context, g *graph.Graph, maxK int, opts Options, rng *rand.Rand) (*graph.Graph, []Report, error) {
	opts.setDefaults()
	if maxK <= 0 {
		maxK = sim.DefaultMaxK
	}
	var reports []Report
	cur := g
	cleared := 0 // cardinality cur is known to survive from clearK's last round
	for k := 1; k <= maxK; k++ {
		if k == cleared {
			continue
		}
		kr, err := sim.ExhaustiveKCtx(ctx, cur, k, opts.MaxFailures, opts.Workers)
		if err != nil {
			return nil, reports, err
		}
		if kr.FailureCount == 0 {
			continue
		}
		next, rep, err := clearK(ctx, cur, kr, opts, rng)
		if err != nil {
			return nil, reports, err
		}
		reports = append(reports, rep)
		cur = next
		if !rep.Cleared {
			return cur, reports, nil // stalled; return best effort
		}
		cleared, k = k, 0 // a rewire can break a lower cardinality: start over
	}
	return cur, reports, nil // tolerates everything up to maxK
}

// pickRewire chooses the adjustment step from the current failure sets:
// the data node appearing in the most failure sets is the target; among the
// target's checks, the one most implicated in failures is dropped; the
// replacement is a check in the same level that is involved in no failure
// set and not already a neighbor, preferring low degree. The error is the
// candidate screen's: only cancellation.
func pickRewire(ctx context.Context, g *graph.Graph, failures [][]int, rng *rand.Rand) (Rewire, bool, error) {
	if len(failures) == 0 {
		return Rewire{}, false, nil
	}
	// Frequency of data nodes across failure sets, and the set of involved
	// checks (erased checks plus checks of erased data nodes).
	dataFreq := map[int]int{}
	involved := map[int]bool{}
	for _, f := range failures {
		for _, v := range f {
			if g.IsData(v) {
				dataFreq[v]++
				for _, p := range g.Parents(v) {
					involved[int(p)] = true
				}
			} else {
				involved[v] = true
			}
		}
	}
	if len(dataFreq) == 0 {
		return Rewire{}, false, nil
	}
	target, bestFreq := -1, 0
	for v, c := range dataFreq {
		if c > bestFreq || (c == bestFreq && (target < 0 || v < target)) {
			target, bestFreq = v, c
		}
	}

	// Most implicated parent of the target: count appearances of each
	// parent inside the failure sets containing the target.
	parentFreq := map[int]int{}
	for _, f := range failures {
		if !contains(f, target) {
			continue
		}
		for _, p := range g.Parents(target) {
			// A parent is implicated when it is erased in the set or
			// seals another erased data node in the set.
			for _, v := range f {
				if v == int(p) || (g.IsData(v) && v != target && g.HasEdge(int(p), v)) {
					parentFreq[int(p)]++
					break
				}
			}
		}
	}
	from := -1
	for _, p := range g.Parents(target) {
		if from < 0 || parentFreq[int(p)] > parentFreq[from] {
			from = int(p)
		}
	}
	if from < 0 {
		return Rewire{}, false, nil
	}

	// Replacement candidates: same level, uninvolved, not already adjacent.
	li := g.LevelOfRight(from)
	lv := g.Levels[li]
	var cands []int
	for r := lv.RightFirst; r < lv.RightFirst+lv.RightCount; r++ {
		if involved[r] || g.HasEdge(r, target) {
			continue
		}
		cands = append(cands, r)
	}
	if len(cands) == 0 || g.RightDegree(from) <= 1 {
		return Rewire{}, false, nil
	}
	to := cands[rng.IntN(len(cands))]
	for _, r := range cands {
		if g.RightDegree(r) < g.RightDegree(to) {
			to = r
		}
	}

	// Screen the candidates so adjustment cannot trade exhaustive-search
	// failures for a structural defect: tentatively apply each rewire and
	// reject any that plants a new closed data set (the same condition the
	// generation gate enforces, evaluated by the same search). The
	// preferred candidate goes first, the rest in ascending degree; when
	// every candidate introduces a defect, fall back to the preferred one —
	// the graph may already carry the defect this rewire is meant to fix.
	before, err := defect.ScanDataLevelCtx(ctx, g, rewireScreenSize, 0)
	if err != nil {
		return Rewire{}, false, err
	}
	rest := make([]int, 0, len(cands)-1)
	for _, r := range cands {
		if r != to {
			rest = append(rest, r)
		}
	}
	slices.SortStableFunc(rest, func(a, b int) int { return g.RightDegree(a) - g.RightDegree(b) })
	for _, cand := range append([]int{to}, rest...) {
		g.RewireEdge(target, from, cand)
		bad, err := introducesNewDefect(ctx, g, before)
		g.RewireEdge(target, cand, from)
		if err != nil {
			return Rewire{}, false, err
		}
		if !bad {
			return Rewire{Left: target, From: from, To: cand}, true, nil
		}
	}
	return Rewire{Left: target, From: from, To: to}, true, nil
}

// rewireScreenSize bounds the closed-set screen applied to replacement
// candidates — the generation gate's default scan depth.
const rewireScreenSize = 3

// introducesNewDefect reports whether g (with a rewire tentatively applied)
// has a data-level closed set that was not present before the rewire.
func introducesNewDefect(ctx context.Context, g *graph.Graph, before []defect.Finding) (bool, error) {
	after, err := defect.ScanDataLevelCtx(ctx, g, rewireScreenSize, 0)
	if err != nil {
		return false, err
	}
	for _, f := range after {
		known := false
		for _, b := range before {
			if slices.Equal(f.Lefts, b.Lefts) {
				known = true
				break
			}
		}
		if !known {
			return true, nil
		}
	}
	return false, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func (r Rewire) String() string {
	return fmt.Sprintf("left %d: %d → %d", r.Left, r.From, r.To)
}
