package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"tornado/internal/defect"
	"tornado/internal/graph"
)

// StreamThreshold is the TotalNodes count above which Generate switches to
// the streaming construction path. The sub-threshold generator keeps the
// historical wiring (and therefore the exact graphs the paper's golden
// tests pin); the streaming path trades that bit-compatibility for
// O(edges) time and memory at archival scale (n = 1k–100k). The defect
// screen is the same on both sides of the threshold.
const StreamThreshold = 1024

// PlanLevelsLarge computes a cascade layout for any even TotalNodes >= 8.
// Unlike PlanLevels it never requires a clean halving chain: level sizes
// ceil-halve, and a running check budget (the data count — the rate is
// fixed at 1/2) absorbs the rounding so the emitted sizes always sum
// exactly to the budget, with the remainder split across the final two
// Typhoon stages. On inputs where the halving chain is clean it returns
// the same plan as PlanLevels.
func PlanLevelsLarge(p Params) (LevelPlan, error) {
	if p.TotalNodes < 8 || p.TotalNodes%2 != 0 {
		return LevelPlan{}, fmt.Errorf("core: TotalNodes must be an even count >= 8, got %d", p.TotalNodes)
	}
	data := p.TotalNodes / 2
	plan := LevelPlan{DataNodes: data}
	left, rem := data, data
	for {
		h := (left + 1) / 2
		if h < p.MinFinalLeft || rem-h < 2 {
			// Final Typhoon stages: two right sets sharing the current left
			// range, absorbing the remaining check budget. rem <= left is an
			// invariant (each emission consumes at least half the budget the
			// level sizes were derived from), so both stages fit the range.
			a := (rem + 1) / 2
			b := rem - a
			if b < 1 {
				return LevelPlan{}, fmt.Errorf("core: check budget %d too small to split into final stages", rem)
			}
			plan.CheckSizes = append(plan.CheckSizes, a, b)
			return plan, nil
		}
		plan.CheckSizes = append(plan.CheckSizes, h)
		rem -= h
		left = h
	}
}

// generateStreamOnce builds one unscreened large-cascade graph: the
// PlanLevelsLarge layout wired level by level with the stub-shuffle
// configuration model. Everything is O(edges) — no per-edge rescan of the
// remaining stub table (the quadratic intermediate of wireRandom).
func generateStreamOnce(p Params, rng *rand.Rand) (*graph.Graph, error) {
	plan, err := PlanLevelsLarge(p)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(plan.DataNodes)
	leftFirst, leftCount := 0, plan.DataNodes
	for i, size := range plan.CheckSizes {
		rf := b.AddLevel(leftFirst, leftCount, size)
		if i < len(plan.CheckSizes)-2 {
			leftFirst, leftCount = rf, size
		}
	}
	g := b.Graph()
	g.Name = fmt.Sprintf("tornado-%d", p.TotalNodes)

	for li := range g.Levels {
		if err := wireStream(g, p, li, rng); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// wireStream realizes the level's degree sequences with a stub-array
// configuration model: every left node contributes one stub per edge, the
// stub array is shuffled once, and each right node claims its degree's
// worth of consecutive stubs. A duplicate left within a right's claim is
// repaired locally by swapping the offending stub with the first
// compatible stub later in the array, so the whole pass stays O(edges)
// amortized. The rare shuffle whose tail cannot absorb a repair is
// redrawn. The accepted stub array becomes level li's adjacency.
func wireStream(g *graph.Graph, p Params, li int, rng *rand.Rand) error {
	lv := g.Levels[li]
	leftDegs, rightDegs, err := levelDegrees(p, lv.LeftCount, lv.RightCount)
	if err != nil {
		return err
	}
	rng.Shuffle(len(leftDegs), func(i, j int) { leftDegs[i], leftDegs[j] = leftDegs[j], leftDegs[i] })
	rng.Shuffle(len(rightDegs), func(i, j int) { rightDegs[i], rightDegs[j] = rightDegs[j], rightDegs[i] })

	edges := 0
	for _, d := range leftDegs {
		edges += d
	}
	stubs := make([]int32, 0, edges)
	for i, d := range leftDegs {
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(i))
		}
	}

	// mark[l] holds the epoch (attempt, right) that last claimed left l, so
	// duplicate detection inside a claim is O(1) with no clearing between
	// rights or attempts.
	mark := make([]int32, lv.LeftCount)
	for i := range mark {
		mark[i] = -1
	}
	const shuffleAttempts = 32
	for attempt := 0; attempt < shuffleAttempts; attempt++ {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		if streamAssign(stubs, rightDegs, mark, int32(attempt*len(rightDegs))) {
			commitStubs(g, li, stubs, rightDegs)
			return nil
		}
	}
	return fmt.Errorf("core: could not match level [%d+%d → %d+%d] without duplicate edges in %d shuffles",
		lv.LeftFirst, lv.LeftCount, lv.RightFirst, lv.RightCount, shuffleAttempts)
}

// streamAssign walks the shuffled stub array assigning consecutive runs to
// rights, swapping duplicates forward out of the current run. It reports
// false when a duplicate cannot be repaired (only possible near the end of
// the array), in which case the caller reshuffles.
func streamAssign(stubs []int32, rightDegs []int, mark []int32, epochBase int32) bool {
	pos := 0
	for r, d := range rightDegs {
		epoch := epochBase + int32(r)
		for j := 0; j < d; j++ {
			if mark[stubs[pos+j]] == epoch {
				swapped := false
				for k := pos + d; k < len(stubs); k++ {
					if mark[stubs[k]] != epoch {
						stubs[pos+j], stubs[k] = stubs[k], stubs[pos+j]
						swapped = true
						break
					}
				}
				if !swapped {
					return false
				}
			}
			mark[stubs[pos+j]] = epoch
		}
		pos += d
	}
	return true
}

// commitStubs installs the validated stub assignment as level li's
// adjacency in one pass: the stubs, shifted from level-relative to node
// IDs in place, become the level's left-neighbor array (the graph keeps
// it), right r claiming the next rightDegs[r] of them.
func commitStubs(g *graph.Graph, li int, stubs []int32, rightDegs []int) {
	leftFirst := int32(g.Levels[li].LeftFirst)
	for i := range stubs {
		stubs[i] += leftFirst
	}
	g.SetLevelNeighbors(li, stubs, rightDegs)
}

// ClosedDataPairs returns every closed data-node pair: the size-2 data-level
// defect screen. It exists only because the benchmark harness binds it
// (bench/api.go) and goes when that binding does (ROADMAP item 3(h)).
func ClosedDataPairs(g *graph.Graph) []defect.Finding {
	fs, _ := defect.ScanDataLevelCtx(context.Background(), g, 2, 0) // only cancellation fails a scan
	return fs
}
