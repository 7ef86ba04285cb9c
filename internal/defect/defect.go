// Package defect finds the structural defects of paper §3.2 and §3.3:
// small "closed sets" of data nodes, each of whose checks has at least two
// neighbors inside the set. Losing such a set is unrecoverable even when
// every other node survives, because each of its checks stays short two or
// more inputs (the paper's "17 [48, 57] / 22 [48, 57]" example).
//
// A closed set is a stopping set in which no check is lost, so the package
// has no search of its own: it runs decode.StoppingEnumerator with every
// check never erased (DESIGN.md "Stopping sets: the exhaustive search"),
// whose cost follows the check degrees, not C(n, k). Generation's repair
// screen (with a Screen's Update after each rewire), the adjustment's
// replacement check and cmd/graphcheck run it; reference_test.go keeps a
// map-per-subset scanner as the oracle it must match finding for finding.
package defect

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"tornado/internal/decode"
	"tornado/internal/graph"
)

// Finding describes one closed data-node set and the checks that seal
// it.
type Finding struct {
	Lefts  []int // the closed data-node set, ascending
	Rights []int // every check adjacent to the set (each has >=2 neighbors in it), ascending
}

func (f Finding) String() string {
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

// minShardRoots is the fewest roots the default worker count gives a worker,
// so small scans (a 96-node graph's) run inline.
const minShardRoots = 4096

// ScanDataLevelCtx returns every minimal closed set of 2..maxSize data
// nodes, ordered by size and then lexicographically. The roots are split
// into contiguous ranges across workers goroutines (0 = GOMAXPROCS), which
// check ctx every 1024 roots; the result does not depend on the worker
// count.
func ScanDataLevelCtx(ctx context.Context, g *graph.Graph, maxSize, workers int) ([]Finding, error) {
	maxSize = min(maxSize, g.Data)
	if maxSize < 2 {
		return nil, nil
	}
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), g.Data/minShardRoots+1)
	}
	workers = min(workers, g.Data)
	found := make([][]Finding, workers)
	errs := make([]error, workers)
	shard := func(i int) {
		e := closedSets(g)
		var sets [][]int
		for v := g.Data * i / workers; v < g.Data*(i+1)/workers; v++ {
			if v%1024 == 0 && ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			sets, _ = e.Root(sets, v, v, maxSize, math.MaxInt64)
		}
		found[i] = findings(g, sets)
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard(i)
		}()
	}
	shard(0) // inline, so a one-worker scan starts no goroutine
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return minimal(slices.Concat(found...)), nil
}

// A Screen revises one graph's findings after each of a run of edits
// (generation's repair rewires, the adjustment's tentative ones). Its
// enumerator reads the graph at every step and holds nothing between
// searches, so one serves every edit, and an update allocates nothing
// beyond its findings. It is not safe for concurrent use.
type Screen struct {
	g *graph.Graph
	e *decode.StoppingEnumerator
}

// NewScreen returns a Screen over g.
func NewScreen(g *graph.Graph) *Screen { return &Screen{g: g, e: closedSets(g)} }

// Update returns ScanDataLevelCtx(g, maxSize) after an edit of the
// Screen's graph g that changed only data node l's parents
// (graph.RewireEdge), given fs, that scan's findings before the edit. A set
// without l sees each check as often as before, and so do its subsets, so
// it stays exactly as closed and as minimal as it was; the sets with l are
// found by one search from l with no root ban.
func (s *Screen) Update(fs []Finding, l, maxSize int) []Finding {
	out := slices.DeleteFunc(slices.Clone(fs), func(f Finding) bool { return slices.Contains(f.Lefts, l) })
	sets, _ := s.e.Root(nil, l, 0, min(maxSize, s.g.Data), math.MaxInt64)
	return minimal(append(out, findings(s.g, sets)...))
}

// closedSets returns an enumerator over g with every check never erased,
// whose stopping sets are the closed data-node sets.
func closedSets(g *graph.Graph) *decode.StoppingEnumerator {
	return decode.NewStoppingEnumerator(g, func(v int) bool { return v >= g.Data })
}

// findings returns the recorded sets of two or more nodes with their
// sealing checks. A single node is a stopping set only when it has no
// parent: a coverage error, not a closed set.
func findings(g *graph.Graph, sets [][]int) []Finding {
	var fs []Finding
	for _, s := range sets {
		if len(s) >= 2 {
			rights, _ := IsClosedSet(g, s)
			fs = append(fs, Finding{Lefts: s, Rights: rights})
		}
	}
	return fs
}

// minimal sorts fs by size and then Lefts, and drops every finding that
// contains an earlier one (duplicates included), leaving the minimal sets.
func minimal(fs []Finding) []Finding {
	slices.SortFunc(fs, func(a, b Finding) int {
		return cmp.Or(len(a.Lefts)-len(b.Lefts), slices.Compare(a.Lefts, b.Lefts))
	})
	var out []Finding
	for _, f := range fs {
		if !slices.ContainsFunc(out, func(m Finding) bool { return subset(m.Lefts, f.Lefts) }) {
			out = append(out, f)
		}
	}
	return out
}
