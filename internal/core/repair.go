package core

import (
	"context"
	"math/rand/v2"

	"tornado/internal/defect"
	"tornado/internal/graph"
)

// RepairDefects removes closed data-node sets (paper §3.2: "these trivial
// cases are easily detected and corrected") by rewiring, for each finding,
// one member's edge from a sealing check to a check outside the sealed set.
// The rewire makes some check adjacent to exactly one member of the set,
// which opens it. The screen is defect.ScanDataLevelCtx up to maxSize at
// every graph size; after each rewire a defect.Screen revises the findings
// (catching any closed set the rewire introduces) instead of rescanning.
// It reports whether the graph is clean after at most maxRounds rewires,
// and the number of rewires performed.
func RepairDefects(g *graph.Graph, maxSize, maxRounds int, rng *rand.Rand) (bool, int) {
	// Generation takes no context, and nothing but cancellation fails a scan.
	fs, _ := defect.ScanDataLevelCtx(context.Background(), g, maxSize, 0)
	scr := defect.NewScreen(g)
	lv := g.Levels[0]
	rewires := 0
	for ; rewires < maxRounds && len(fs) > 0; rewires++ {
		l, ok := rewireOpen(g, lv, fs[rng.IntN(len(fs))], rng)
		if !ok {
			return false, rewires
		}
		fs = scr.Update(fs, l, maxSize)
	}
	return len(fs) == 0, rewires
}

// rewireOpen breaks one closed set by moving a random member's edge off a
// random sealing check onto a level-0 check outside the sealed set that is
// not already a neighbor, and returns the member it rewired. It returns
// false when no candidate replacement exists (a pathologically dense
// level).
func rewireOpen(g *graph.Graph, lv graph.Level, f defect.Finding, rng *rand.Rand) (int, bool) {
	sealed := make(map[int]bool, len(f.Rights))
	for _, r := range f.Rights {
		sealed[r] = true
	}
	lefts := rng.Perm(len(f.Lefts))
	for _, i := range lefts {
		l := f.Lefts[i]
		// The member's checks inside the sealed set, one of which will be
		// dropped.
		var fromChoices []int
		for _, r := range g.Parents(l) {
			if sealed[int(r)] {
				fromChoices = append(fromChoices, int(r))
			}
		}
		if len(fromChoices) == 0 {
			continue
		}
		from := fromChoices[rng.IntN(len(fromChoices))]
		// Candidate replacements: level-0 checks outside the sealed set
		// that do not already reference l. Prefer low-degree checks so the
		// rewire does not starve other nodes' recovery options.
		var to []int
		for r := lv.RightFirst; r < lv.RightFirst+lv.RightCount; r++ {
			if sealed[r] || g.HasEdge(r, l) {
				continue
			}
			to = append(to, r)
		}
		if len(to) == 0 {
			continue
		}
		best := to[rng.IntN(len(to))]
		for _, r := range to {
			if g.RightDegree(r) < g.RightDegree(best) {
				best = r
			}
		}
		// Keep the donor check non-empty.
		if g.RightDegree(from) <= 1 {
			continue
		}
		g.RewireEdge(l, from, best)
		return l, true
	}
	return 0, false
}
