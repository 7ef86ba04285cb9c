package core

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"tornado/internal/defect"
	"tornado/internal/graph"
)

// StreamThreshold is the TotalNodes count above which Generate switches to
// the streaming construction path. The sub-threshold generator keeps the
// historical wiring (and therefore the exact graphs the paper's golden
// tests pin); the streaming path trades that bit-compatibility for
// O(edges) time and memory at archival scale (n = 1k–100k).
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
	type levelRange struct{ leftFirst, leftCount, rightFirst, rightCount int }
	var lvs []levelRange
	leftFirst, leftCount := 0, plan.DataNodes
	for i, size := range plan.CheckSizes {
		rf := b.AddLevel(leftFirst, leftCount, size)
		lvs = append(lvs, levelRange{leftFirst, leftCount, rf, size})
		if i < len(plan.CheckSizes)-2 {
			leftFirst, leftCount = rf, size
		}
	}
	g := b.Graph()
	g.Name = fmt.Sprintf("tornado-%d", p.TotalNodes)

	for _, lv := range lvs {
		if err := wireStream(g, p, lv.leftFirst, lv.leftCount, lv.rightFirst, lv.rightCount, rng); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: generated graph invalid: %w", err)
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
// redrawn.
func wireStream(g *graph.Graph, p Params, leftFirst, leftCount, rightFirst, rightCount int, rng *rand.Rand) error {
	leftDegs, rightDegs, err := levelDegrees(p, leftCount, rightCount)
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
	mark := make([]int32, leftCount)
	for i := range mark {
		mark[i] = -1
	}
	const shuffleAttempts = 32
	for attempt := 0; attempt < shuffleAttempts; attempt++ {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		if streamAssign(stubs, rightDegs, mark, int32(attempt*len(rightDegs))) {
			commitStubs(g, stubs, rightDegs, leftFirst, rightFirst)
			return nil
		}
	}
	return fmt.Errorf("core: could not match level [%d+%d → %d+%d] without duplicate edges in %d shuffles",
		leftFirst, leftCount, rightFirst, rightCount, shuffleAttempts)
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

// commitStubs installs the validated stub assignment into the graph.
func commitStubs(g *graph.Graph, stubs []int32, rightDegs []int, leftFirst, rightFirst int) {
	pos := 0
	var lefts []int
	for r, d := range rightDegs {
		lefts = lefts[:0]
		for j := 0; j < d; j++ {
			lefts = append(lefts, leftFirst+int(stubs[pos+j]))
		}
		g.SetNeighbors(rightFirst+r, lefts)
		pos += d
	}
}

// streamDefects is the streaming path's screen. Full subset scanning is
// infeasible at archival scale — C(50000, 3) alone is ~2e13 — so it covers
// closed sets of size <= 2, which the paper identifies as the dominant
// defect class, with the exact O(edges) hashed pair scan.
func streamDefects(g *graph.Graph, maxSize int) []defect.Finding {
	if maxSize < 2 {
		return nil
	}
	return closedPairsHash(g)
}

// ClosedDataPairs finds every closed data-node pair with the O(edges)
// hashed scan, regardless of graph size — the screen the streaming
// generation path applies at archival scale, exported for callers (CLIs,
// health checks) that need a defect warning on graphs whose pair rank
// space is far beyond the subset-scanning kernel.
func ClosedDataPairs(g *graph.Graph) []defect.Finding {
	return closedPairsHash(g)
}

// closedPairsHash finds every closed data-node pair in O(edges): a pair
// {a, b} is closed exactly when every check adjacent to either node sees
// both, i.e. the two nodes have identical parent sets. Data nodes are
// bucketed by a hash of their sorted parent list and buckets are verified
// exactly, so hash collisions cannot fabricate findings. Findings come out
// in ascending (a, b) order for deterministic repair.
func closedPairsHash(g *graph.Graph) []defect.Finding {
	type entry struct {
		node    int
		parents []int32 // sorted copy
	}
	buckets := make(map[uint64][]entry, g.Data)
	var fs []defect.Finding
	for v := 0; v < g.Data; v++ {
		ps := slices.Clone(g.Parents(v))
		slices.Sort(ps)
		h := uint64(14695981039346656037) // FNV-1a over the sorted parent IDs
		for _, p := range ps {
			h ^= uint64(uint32(p))
			h *= 1099511628211
		}
		for _, e := range buckets[h] {
			if slices.Equal(e.parents, ps) {
				rights := make([]int, len(ps))
				for i, p := range ps {
					rights[i] = int(p)
				}
				fs = append(fs, defect.Finding{Lefts: []int{e.node, v}, Rights: rights})
			}
		}
		buckets[h] = append(buckets[h], entry{node: v, parents: ps})
	}
	slices.SortFunc(fs, func(a, b defect.Finding) int { return slices.Compare(a.Lefts, b.Lefts) })
	return fs
}
