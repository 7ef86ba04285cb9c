// Package defect finds the structural defects of paper §3.2 and §3.3:
// small "closed sets" of left nodes, each of whose checks has at least two
// neighbors inside the set. Losing such a set is unrecoverable even when
// every other node survives, because each of its checks stays short two or
// more inputs (the paper's "17 [48, 57] / 22 [48, 57]" example).
//
// One search serves every graph size (DESIGN.md "Defect screen"): it grows
// a set from each root through a check that sees exactly one member, so its
// cost follows the check degrees, not C(n, k). Generation's repair screen
// (with Update after each rewire), the adjustment's replacement check and
// cmd/graphcheck run it; reference_test.go keeps a map-per-subset scanner
// as the oracle it must match finding for finding.
package defect

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

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

// minShardRoots is the fewest roots the default worker count gives a worker,
// so small scans (every level of a 96-node graph) run inline.
const minShardRoots = 4096

// ScanDataLevelCtx returns every minimal closed set of 2..maxSize data
// nodes, ordered by size and then lexicographically. See ScanLevelCtx.
func ScanDataLevelCtx(ctx context.Context, g *graph.Graph, maxSize, workers int) ([]Finding, error) {
	return scanRange(ctx, g, 0, 0, g.Data, maxSize, workers)
}

// ScanLevelCtx returns every minimal closed set of 2..maxSize members in
// level li's left range, ordered by size and then lexicographically. The
// roots are split into contiguous ranges across workers goroutines
// (0 = GOMAXPROCS), which check ctx every 1024 roots; the result does not
// depend on the worker count.
//
// For li > 0 the members are checks: a closed set there cannot be
// recovered through its parents (peeling rule 1), but stays recomputable
// bottom-up (rule 2), so it marks a cascade weak point, not data loss.
func ScanLevelCtx(ctx context.Context, g *graph.Graph, li, maxSize, workers int) ([]Finding, error) {
	if li < 0 || li >= len(g.Levels) {
		return nil, fmt.Errorf("defect: level %d out of range (graph has %d levels)", li, len(g.Levels))
	}
	lv := g.Levels[li]
	return scanRange(ctx, g, li, lv.LeftFirst, lv.LeftCount, maxSize, workers)
}

// ScanGraphCtx scans every distinct left range of the cascade — the data
// level plus each check level that feeds a higher one — and returns the
// concatenated findings in level order, each tagged with its Level. Levels
// sharing a left range (the final Typhoon stages) are scanned once.
func ScanGraphCtx(ctx context.Context, g *graph.Graph, maxSize, workers int) ([]Finding, error) {
	var all []Finding
	for li, lv := range g.Levels {
		if slices.ContainsFunc(g.Levels[:li], func(o graph.Level) bool {
			return o.LeftFirst == lv.LeftFirst && o.LeftCount == lv.LeftCount
		}) {
			continue
		}
		fs, err := ScanLevelCtx(ctx, g, li, maxSize, workers)
		if err != nil {
			return all, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// Update returns ScanDataLevelCtx(g, maxSize) after an edit that changed
// only data node l's parents (graph.RewireEdge), given fs, that scan's
// findings before the edit. A set without l sees each check as often as
// before, and so do its subsets, so it stays exactly as closed and as
// minimal as it was; the sets with l are found by one search from l with
// no root ban.
func Update(g *graph.Graph, fs []Finding, l, maxSize int) []Finding {
	out := slices.DeleteFunc(slices.Clone(fs), func(f Finding) bool { return slices.Contains(f.Lefts, l) })
	s := newSearch(g, 0, 0, g.Data, min(maxSize, g.Data))
	s.root(l, 0)
	return minimal(append(out, s.found...))
}

func scanRange(ctx context.Context, g *graph.Graph, level, first, count, maxSize, workers int) ([]Finding, error) {
	maxSize = min(maxSize, count)
	if maxSize < 2 {
		return nil, nil
	}
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), count/minShardRoots+1)
	}
	workers = min(workers, count)
	found := make([][]Finding, workers)
	errs := make([]error, workers)
	shard := func(i int) {
		s := newSearch(g, level, first, count, maxSize)
		for v := first + count*i/workers; v < first+count*(i+1)/workers; v++ {
			if (v-first)%1024 == 0 && ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			s.root(v, v)
		}
		found[i] = s.found
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

// search is the data-only counterpart of decode.StoppingEnumerator: a
// depth-first search from S = {root} that takes a violated check (one that
// sees exactly one member of S) and branches on its left neighbors o_i at
// or above lo, branch i forbidding o_0 … o_{i−1} in its subtree. A closed S
// is recorded and not extended; at maxSize−1 members only an option that
// closes S is taken. Every minimal closed set T of at most maxSize members,
// none below lo, is recorded from any root in T: a closed T ⊇ S holds
// another neighbor of the check, following the branch of T's first one
// keeps S inside T, and the first closed S ⊆ T is T. A record may contain
// a closed set without the root; minimal drops it.
type search struct {
	g                *graph.Graph
	level, first, lo int
	maxSize          int

	cnt     []int32 // per check: members of S among its left neighbors
	ones    int     // violated checks: those with cnt 1
	banned  []bool  // per left, indexed from first: forbidden by an earlier sibling
	members []int   // S, in insertion order
	undo    []int   // banned lefts, indexed from first, in ban order
	found   []Finding
}

func newSearch(g *graph.Graph, level, first, count, maxSize int) *search {
	return &search{g: g, level: level, first: first, maxSize: maxSize,
		cnt: make([]int32, g.Total), banned: make([]bool, count)}
}

// root records the closed sets the search from v finds among options at or
// above lo.
func (s *search) root(v, lo int) {
	s.lo = lo
	s.move(v, 1)
	s.grow()
	s.move(v, -1)
}

func (s *search) grow() {
	if s.ones == 0 {
		if len(s.members) >= 2 { // a root without parents has no sealing check
			s.record()
		}
		return
	}
	if len(s.members) == s.maxSize {
		return
	}
	mark, last := len(s.undo), len(s.members) == s.maxSize-1
	for _, o := range s.g.LeftNeighbors(s.violated()) {
		v := int(o)
		if v < s.lo || s.banned[v-s.first] || slices.Contains(s.members, v) || last && !s.closes(v) {
			continue
		}
		s.move(v, 1)
		s.grow()
		s.move(v, -1)
		s.banned[v-s.first] = true
		s.undo = append(s.undo, v-s.first)
	}
	for _, i := range s.undo[mark:] {
		s.banned[i] = false
	}
	s.undo = s.undo[:mark]
}

// closes reports whether adding v closes S: every check v touches already
// sees a member, and v touches every violated check.
func (s *search) closes(v int) bool {
	fixed := 0
	for _, p := range s.g.Parents(v) {
		if s.cnt[p] == 0 {
			return false
		}
		if s.cnt[p] == 1 {
			fixed++
		}
	}
	return fixed == s.ones
}

// violated returns the violated check with the fewest left neighbors, the
// narrowest branch. S must not be closed.
func (s *search) violated() int {
	q := -1
	for _, v := range s.members {
		for _, p := range s.g.Parents(v) {
			if s.cnt[p] == 1 && (q < 0 || s.g.RightDegree(int(p)) < s.g.RightDegree(q)) {
				q = int(p)
			}
		}
	}
	return q
}

// record appends S with its sealing checks.
func (s *search) record() {
	lefts := slices.Clone(s.members)
	slices.Sort(lefts)
	rights, _ := IsClosedSet(s.g, lefts)
	s.found = append(s.found, Finding{Level: s.level, Lefts: lefts, Rights: rights})
}

// move puts v into S (d = 1) or takes the last member, v, out (d = −1),
// keeping cnt and ones.
func (s *search) move(v int, d int32) {
	if d > 0 {
		s.members = append(s.members, v)
	} else {
		s.members = s.members[:len(s.members)-1]
	}
	for _, p := range s.g.Parents(v) {
		s.cnt[p] += d
		if c := s.cnt[p]; c == 1 {
			s.ones++
		} else if c-d == 1 {
			s.ones--
		}
	}
}
