// Package defect implements the structural defect detection of paper §3.2
// and §3.3: randomly generated Tornado graphs occasionally contain small
// "closed sets" — sets of left nodes whose right (check) neighbors all have
// at least two neighbors inside the set. Losing such a left set is
// unrecoverable even when every other node in the graph is present, because
// each covering check is permanently short two or more inputs (e.g. the
// paper's "17 [48, 57] / 22 [48, 57]" example, a worst case of two).
//
// The scan enumerates candidate left subsets up to a configurable size and
// reports each minimal closed set found. Graph generation repairs the
// data-level findings by rewiring (and discards a graph only when repair
// fails); the adjustment procedure uses the same condition when choosing
// replacement edges.
//
// One implementation is built (see DESIGN.md "Defect kernels"): the
// kernel path (Table/Kernel + ScanDataLevelCtx, ScanLevelCtx, ScanGraphCtx)
// precomputes per-left-node parent bitmasks and maintains per-check member
// counts incrementally across revolving-door subset order, sharding each
// size's combination rank space across a worker pool. Generation's repair
// screen, the adjustment replacement check, and cmd/graphcheck all run it.
// The original single-threaded map-per-subset scanner survives only in
// reference_test.go, as the differential-testing oracle the kernel must
// match bit for bit.
package defect

import (
	"fmt"
	"slices"

	"tornado/internal/graph"
)

// Finding describes one closed left-node set and the right nodes that seal
// it.
type Finding struct {
	Level  int   // cascade level of the left range the set lives in (0 = data)
	Lefts  []int // the closed left set, ascending
	Rights []int // every check adjacent to the set (each has >=2 neighbors in it), ascending
}

func (f Finding) String() string {
	if f.Level > 0 {
		return fmt.Sprintf("closed set (level %d): lefts %v sealed by rights %v", f.Level, f.Lefts, f.Rights)
	}
	return fmt.Sprintf("closed set: lefts %v sealed by rights %v", f.Lefts, f.Rights)
}

// IsClosedSet reports whether the left-node set S (node IDs) is closed in
// g: every right node adjacent to a member of S has at least two neighbors
// in S. It returns the sealing right nodes when true.
func IsClosedSet(g *graph.Graph, S []int) ([]int, bool) {
	counts := map[int32]int{}
	for _, l := range S {
		for _, r := range g.Parents(l) {
			counts[r]++
		}
	}
	rights := make([]int, 0, len(counts))
	for r, c := range counts {
		if c < 2 {
			return nil, false
		}
		rights = append(rights, int(r))
	}
	if len(rights) == 0 {
		return nil, false // isolated nodes are a coverage error, not a closed set
	}
	slices.Sort(rights)
	return rights, true
}

// subset reports whether every element of a (sorted) appears in b (sorted).
func subset(a, b []int) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}
