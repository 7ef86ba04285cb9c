// Package lec implements a Lincoln-Erasure-Code-style alternative graph
// family, the comparison the paper defers to future work (§2.1: "As the
// software developed for our work can utilize any LDPC graph, evaluation
// of LEC graphs in future work is possible").
//
// The LEC construction is described in its literature as a single-level
// irregular LDPC code with a tightly concentrated edge distribution and —
// its distinguishing feature — *automated generation and evaluation*: many
// candidate graphs are drawn, each is scored by fast simulation, and only
// the best survives. The exact published distribution is not reproduced
// here (the original is not openly specified); this package implements the
// documented methodology with a concentrated two-degree left distribution
// and a candidate search scored by the same worst-case and Monte Carlo
// machinery used for Tornado graphs. See DESIGN.md's substitution notes.
package lec

import (
	"context"
	"fmt"
	"math/rand/v2"

	"tornado/internal/dist"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

// Options configures the LEC candidate search.
type Options struct {
	// Candidates is the number of random graphs drawn and scored. Default 16.
	Candidates int
	// BaseDegree is the concentrated left degree; nodes carry BaseDegree
	// or BaseDegree+1 edges. Default 4.
	BaseDegree int
	// ScreenK is the exhaustive screening cardinality used in scoring
	// (first-failure dominates the score). Default 3.
	ScreenK int
	// ProbeTrials is the Monte Carlo budget for the mid-curve probe.
	// Default 2000.
	ProbeTrials int64
	// Workers bounds simulation goroutines.
	Workers int
}

func (o *Options) setDefaults() {
	if o.Candidates <= 0 {
		o.Candidates = 16
	}
	if o.BaseDegree <= 0 {
		o.BaseDegree = 4
	}
	if o.ScreenK <= 0 {
		o.ScreenK = 3
	}
	if o.ProbeTrials <= 0 {
		o.ProbeTrials = 2000
	}
}

// SearchStats reports the candidate search.
type SearchStats struct {
	Candidates    int
	BestFirstFail int     // first failure of the winner within ScreenK (0 = none found)
	BestMidFail   float64 // winner's failure fraction at the mid-curve probe point
}

// Generate draws Options.Candidates random LEC-style graphs over data data
// nodes and checks check nodes, scores each (later first failure, then
// lower mid-curve failure fraction), and returns the best.
func Generate(data, checks int, opts Options, rng *rand.Rand) (*graph.Graph, SearchStats, error) {
	opts.setDefaults()
	if data < 2 || checks < 2 {
		return nil, SearchStats{}, fmt.Errorf("lec: need at least 2 data and 2 check nodes")
	}
	if opts.BaseDegree >= checks {
		return nil, SearchStats{}, fmt.Errorf("lec: base degree %d too large for %d checks", opts.BaseDegree, checks)
	}

	st := SearchStats{Candidates: opts.Candidates}
	var best *graph.Graph
	bestFF, bestMid := -1, 2.0
	probeK := (data + checks) / 4

	for c := 0; c < opts.Candidates; c++ {
		g, err := draw(data, checks, opts.BaseDegree, rng)
		if err != nil {
			continue // unlucky wiring; try the next candidate
		}
		wc, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: opts.ScreenK, Workers: opts.Workers})
		if err != nil {
			return nil, st, err
		}
		ff := 0
		if wc.Found {
			ff = wc.FirstFailure
		}
		ffScore := ff
		if ffScore == 0 {
			ffScore = opts.ScreenK + 1 // tolerating everything scores best
		}
		prof, err := sim.FailureProfileCtx(context.Background(), g, sim.ProfileOptions{
			Trials: opts.ProbeTrials, MinK: probeK, MaxK: probeK, Workers: opts.Workers, Seed: uint64(c) + 1,
		})
		if err != nil {
			return nil, st, err
		}
		mid := prof.FailFraction(probeK)

		better := false
		switch {
		case best == nil:
			better = true
		case ffScore > bestScoreFF(bestFF, opts.ScreenK):
			better = true
		case ffScore == bestScoreFF(bestFF, opts.ScreenK) && mid < bestMid:
			better = true
		}
		if better {
			best, bestFF, bestMid = g, ff, mid
		}
	}
	if best == nil {
		return nil, st, fmt.Errorf("lec: no candidate could be wired")
	}
	st.BestFirstFail = bestFF
	st.BestMidFail = bestMid
	best.Name = fmt.Sprintf("lec-%d-deg%d", data+checks, opts.BaseDegree)
	return best, st, nil
}

func bestScoreFF(ff, screenK int) int {
	if ff == 0 {
		return screenK + 1
	}
	return ff
}

// draw wires one candidate: a single level whose left degrees are
// concentrated on {BaseDegree, BaseDegree+1} with the split solved to hit
// the check capacity, realized by weighted distinct sampling.
func draw(data, checks, baseDeg int, rng *rand.Rand) (*graph.Graph, error) {
	b := graph.NewBuilder(data)
	rf := b.AddLevel(0, data, checks)
	g := b.Graph()

	// Left degrees: concentrated two-point distribution.
	leftSol, err := dist.Solve(dist.Dist{MinDegree: baseDeg, Weights: []float64{2, 1}}, data)
	if err != nil {
		return nil, err
	}
	edges := leftSol.Edges
	rightSol, err := dist.SolveEdgesMax(dist.PoissonRight(float64(edges)/float64(checks), min(checks, data)), checks, edges, data)
	if err != nil {
		return nil, err
	}
	leftDegs := leftSol.Degrees()
	rightDegs := rightSol.Degrees()
	rng.Shuffle(len(leftDegs), func(i, j int) { leftDegs[i], leftDegs[j] = leftDegs[j], leftDegs[i] })
	rng.Shuffle(len(rightDegs), func(i, j int) { rightDegs[i], rightDegs[j] = rightDegs[j], rightDegs[i] })

	// Weighted distinct sampling, as in the tornado wiring.
	rem := append([]int(nil), leftDegs...)
	for r, d := range rightDegs {
		lefts := make([]int, 0, d)
		for j := 0; j < d; j++ {
			total := 0
			for _, v := range rem {
				if v > 0 {
					total += v
				}
			}
			if total == 0 {
				return nil, fmt.Errorf("lec: stub exhaustion")
			}
			t := rng.IntN(total)
			li := -1
			for i, v := range rem {
				if v <= 0 {
					continue
				}
				if t < v {
					li = i
					break
				}
				t -= v
			}
			if contains(lefts, li) {
				return nil, fmt.Errorf("lec: duplicate pick")
			}
			lefts = append(lefts, li)
			rem[li] = -(rem[li] - 1)
		}
		for i := range lefts {
			rem[lefts[i]] = -rem[lefts[i]]
			lefts[i] += 0 // node IDs equal indices at level 0
		}
		g.SetNeighbors(rf+r, lefts)
	}
	for _, v := range rem {
		if v != 0 {
			return nil, fmt.Errorf("lec: leftover stubs")
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
