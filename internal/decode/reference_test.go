package decode

import "tornado/internal/graph"

// ReferenceRecoverable is a deliberately simple O(levels · edges · rounds)
// implementation of the peeling rules, used as a differential-testing oracle
// for the incremental Decoder. It repeatedly scans every right node applying
// both reconstruction rules until a full pass makes no progress.
func ReferenceRecoverable(g *graph.Graph, erased []int) bool {
	ok, _ := referencePeel(g, erased)
	return ok
}

// referencePeel runs ReferenceRecoverable's fixpoint to the end and returns
// its verdict and residue: the nodes still missing, ascending.
func referencePeel(g *graph.Graph, erased []int) (ok bool, residue []int) {
	present := make([]bool, g.Total)
	for i := range present {
		present[i] = true
	}
	for _, v := range erased {
		present[v] = false
	}
	for changed := true; changed; {
		changed = false
		for r := g.Data; r < g.Total; r++ {
			nMissing := 0
			missingLeft := -1
			for _, l := range g.LeftNeighbors(r) {
				if !present[l] {
					nMissing++
					missingLeft = int(l)
				}
			}
			if present[r] && nMissing == 1 {
				present[missingLeft] = true
				changed = true
			} else if !present[r] && nMissing == 0 {
				present[r] = true
				changed = true
			}
		}
	}
	ok = true
	for v, p := range present {
		if !p {
			residue = append(residue, v)
			ok = ok && v >= g.Data
		}
	}
	return ok, residue
}
