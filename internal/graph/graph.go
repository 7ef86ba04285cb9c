// Package graph models the cascaded bipartite low density parity check
// (LDPC) graphs at the heart of a Tornado Code (paper §2, Figures 1–2).
//
// A graph holds Data data nodes (global IDs 0..Data-1) followed by one or
// more check levels. Each level connects a contiguous range of left nodes to
// a contiguous range of newly allocated right (check) nodes; the left nodes
// of level i+1 are the right nodes of level i. The Typhoon treatment of the
// final stages (paper §3.1) is expressed naturally: two consecutive levels
// may share the same left range.
//
// Every right node stores the list of left nodes XORed to produce it. The
// reverse index (Parents) — the right nodes that reference a given node —
// is maintained for the peeling decoder.
package graph

import (
	"fmt"
	"slices"
)

// Level describes one cascade stage: right nodes [RightFirst,
// RightFirst+RightCount) are parity over subsets of left nodes [LeftFirst,
// LeftFirst+LeftCount).
type Level struct {
	LeftFirst  int
	LeftCount  int
	RightFirst int
	RightCount int
}

// Graph is a cascaded bipartite LDPC graph. Construct with NewBuilder or by
// deserializing GraphML; mutate edges only through the Add/Remove/Rewire
// methods so the reverse index stays consistent.
type Graph struct {
	Name   string
	Data   int // number of data nodes; IDs 0..Data-1
	Total  int // total node count (data + all check nodes)
	Levels []Level

	lefts   [][]int32 // lefts[r]: left neighbors of right node r (nil for non-right nodes)
	parents [][]int32 // parents[v]: right nodes that include v as a left neighbor
}

// Builder incrementally assembles a Graph level by level.
type Builder struct {
	g *Graph
}

// NewBuilder starts a graph with data data nodes and no check levels.
func NewBuilder(data int) *Builder {
	if data <= 0 {
		panic("graph: data node count must be positive")
	}
	return &Builder{g: &Graph{Data: data, Total: data}}
}

// AddLevel appends a check level whose left nodes are the range
// [leftFirst, leftFirst+leftCount) and allocates rightCount fresh right
// nodes, returning the ID of the first. The left range must reference
// already-existing nodes.
func (b *Builder) AddLevel(leftFirst, leftCount, rightCount int) int {
	g := b.g
	if leftCount <= 0 || rightCount <= 0 {
		panic("graph: level node counts must be positive")
	}
	if leftFirst < 0 || leftFirst+leftCount > g.Total {
		panic(fmt.Sprintf("graph: left range [%d,%d) references unknown nodes (total %d)",
			leftFirst, leftFirst+leftCount, g.Total))
	}
	rightFirst := g.Total
	g.Levels = append(g.Levels, Level{
		LeftFirst: leftFirst, LeftCount: leftCount,
		RightFirst: rightFirst, RightCount: rightCount,
	})
	g.Total += rightCount
	return rightFirst
}

// Graph finalizes the builder, allocating adjacency storage. Edges are then
// added with SetLevelNeighbors, SetNeighbors or AddEdge.
func (b *Builder) Graph() *Graph {
	g := b.g
	g.lefts = make([][]int32, g.Total)
	g.parents = make([][]int32, g.Total)
	return g
}

// IsData reports whether node v is a data node.
func (g *Graph) IsData(v int) bool { return v >= 0 && v < g.Data }

// IsRight reports whether node v is a right (check) node of some level.
func (g *Graph) IsRight(v int) bool { return v >= g.Data && v < g.Total }

// LevelOfRight returns the index of the level whose right range contains v,
// or -1 if v is not a right node.
func (g *Graph) LevelOfRight(v int) int {
	for i, l := range g.Levels {
		if v >= l.RightFirst && v < l.RightFirst+l.RightCount {
			return i
		}
	}
	return -1
}

// LeftNeighbors returns the left-neighbor list of right node r. The caller
// must not mutate the returned slice.
func (g *Graph) LeftNeighbors(r int) []int32 { return g.lefts[r] }

// Parents returns the right nodes that include v as a left neighbor. The
// caller must not mutate the returned slice.
func (g *Graph) Parents(v int) []int32 { return g.parents[v] }

// Degree returns the number of right nodes referencing v (v's left degree).
func (g *Graph) Degree(v int) int { return len(g.parents[v]) }

// RightDegree returns the number of left neighbors of right node r.
func (g *Graph) RightDegree(r int) int { return len(g.lefts[r]) }

// HasEdge reports whether right node r references left node l.
func (g *Graph) HasEdge(r, l int) bool {
	return slices.Contains(g.lefts[r], int32(l))
}

// SetNeighbors replaces the left-neighbor list of right node r. Neighbors
// must be distinct and inside r's level's left range.
func (g *Graph) SetNeighbors(r int, lefts []int) {
	for _, l := range g.lefts[r] {
		g.removeParent(int(l), r)
	}
	g.lefts[r] = g.lefts[r][:0]
	for _, l := range lefts {
		g.AddEdge(r, l)
	}
}

// SetLevelNeighbors wires level li in one pass: its i-th right node, which
// must have no edges yet, gets the next degs[i] entries of lefts as its
// left neighbors, in order. The graph keeps lefts as the level's backing
// array and puts the parents the level adds in one more; both are carved
// into per-node sub-slices capped at their length, so a later AddEdge to
// one node reallocates that node's slice instead of writing into the next
// node's entries. Each left node's parents are what it held before (the
// other Typhoon stage sharing its range) followed by this level's rights
// in ascending order: the adjacency per-edge AddEdge calls in right order
// build. Like AddEdge, it panics on an edge outside the level's left range
// or a duplicate edge.
func (g *Graph) SetLevelNeighbors(li int, lefts []int32, degs []int) {
	lv := g.Levels[li]
	sum := 0
	for _, d := range degs {
		sum += d
	}
	if len(degs) != lv.RightCount || sum != len(lefts) {
		panic(fmt.Sprintf("graph: SetLevelNeighbors: %d degrees summing to %d for level %d's %d right nodes and %d lefts",
			len(degs), sum, li, lv.RightCount, len(lefts)))
	}
	// end[i] first counts left node LeftFirst+i's parents, old and new.
	// Then it is where the node's next parent goes in back: the start of
	// its run, moved past the old parents copied in and each right filled
	// in, so it ends where the run ends and the next one starts.
	end := make([]int, lv.LeftCount)
	for i := range end {
		end[i] = len(g.parents[lv.LeftFirst+i])
	}
	for _, l := range lefts {
		if int(l) < lv.LeftFirst || int(l) >= lv.LeftFirst+lv.LeftCount {
			panic(fmt.Sprintf("graph: SetLevelNeighbors: left node %d outside level %d left range [%d,%d)",
				l, li, lv.LeftFirst, lv.LeftFirst+lv.LeftCount))
		}
		end[int(l)-lv.LeftFirst]++
	}
	start := 0
	for i, n := range end {
		start, end[i] = start+n, start
	}
	back := make([]int32, start)
	for i := range end {
		end[i] += copy(back[end[i]:], g.parents[lv.LeftFirst+i])
	}
	pos := 0
	for i, d := range degs {
		r := lv.RightFirst + i
		if len(g.lefts[r]) != 0 {
			panic(fmt.Sprintf("graph: SetLevelNeighbors: right node %d already wired", r))
		}
		g.lefts[r] = lefts[pos : pos+d : pos+d]
		for _, l := range g.lefts[r] {
			back[end[int(l)-lv.LeftFirst]] = int32(r)
			end[int(l)-lv.LeftFirst]++
		}
		pos += d
	}
	// The level's rights went into each run in ascending order, so a
	// duplicate edge is two equal neighbours in the run's added part.
	start = 0
	for i, e := range end {
		l := lv.LeftFirst + i
		added := back[start+len(g.parents[l]) : e]
		for j := 1; j < len(added); j++ {
			if added[j] == added[j-1] {
				panic(fmt.Sprintf("graph: SetLevelNeighbors: duplicate edge (%d,%d)", added[j], l))
			}
		}
		g.parents[l] = back[start:e:e]
		start = e
	}
}

// AddEdge connects right node r to left node l. It panics if the edge
// already exists or violates the level structure.
func (g *Graph) AddEdge(r, l int) {
	li := g.LevelOfRight(r)
	if li < 0 {
		panic(fmt.Sprintf("graph: AddEdge: %d is not a right node", r))
	}
	lv := g.Levels[li]
	if l < lv.LeftFirst || l >= lv.LeftFirst+lv.LeftCount {
		panic(fmt.Sprintf("graph: AddEdge: left node %d outside level %d left range [%d,%d)",
			l, li, lv.LeftFirst, lv.LeftFirst+lv.LeftCount))
	}
	if g.HasEdge(r, l) {
		panic(fmt.Sprintf("graph: AddEdge: duplicate edge (%d,%d)", r, l))
	}
	g.lefts[r] = append(g.lefts[r], int32(l))
	g.parents[l] = append(g.parents[l], int32(r))
}

// RemoveEdge disconnects right node r from left node l. It panics if the
// edge does not exist.
func (g *Graph) RemoveEdge(r, l int) {
	i := slices.Index(g.lefts[r], int32(l))
	if i < 0 {
		panic(fmt.Sprintf("graph: RemoveEdge: no edge (%d,%d)", r, l))
	}
	g.lefts[r] = slices.Delete(g.lefts[r], i, i+1)
	g.removeParent(l, r)
}

func (g *Graph) removeParent(l, r int) {
	i := slices.Index(g.parents[l], int32(r))
	if i < 0 {
		panic(fmt.Sprintf("graph: reverse index corrupt: parents[%d] missing %d", l, r))
	}
	g.parents[l] = slices.Delete(g.parents[l], i, i+1)
}

// RewireEdge moves left node l's membership from right node oldR to right
// node newR (both in the same level). This is the primitive used by the
// feedback-based graph adjustment procedure (paper §3.3).
func (g *Graph) RewireEdge(l, oldR, newR int) {
	if g.LevelOfRight(oldR) != g.LevelOfRight(newR) {
		panic(fmt.Sprintf("graph: RewireEdge across levels (%d→%d)", oldR, newR))
	}
	g.RemoveEdge(oldR, l)
	g.AddEdge(newR, l)
}

// EdgeCount returns the total number of edges across all levels.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, ls := range g.lefts {
		n += len(ls)
	}
	return n
}

// AvgDataDegree returns the average number of check nodes referencing each
// data node (the paper reports ≈3.6 for its Tornado graphs).
func (g *Graph) AvgDataDegree() float64 {
	if g.Data == 0 {
		return 0
	}
	n := 0
	for v := 0; v < g.Data; v++ {
		n += len(g.parents[v])
	}
	return float64(n) / float64(g.Data)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:    g.Name,
		Data:    g.Data,
		Total:   g.Total,
		Levels:  slices.Clone(g.Levels),
		lefts:   make([][]int32, g.Total),
		parents: make([][]int32, g.Total),
	}
	for i := range g.lefts {
		c.lefts[i] = slices.Clone(g.lefts[i])
		c.parents[i] = slices.Clone(g.parents[i])
	}
	return c
}

// Validate checks structural invariants: level ranges tile the node space,
// every edge respects its level's left range, no duplicate edges, the
// reverse index matches the forward adjacency, every right node has at
// least one left neighbor, and every data node is covered by at least one
// check. It runs in O(nodes + edges): generation validates every
// archival-scale graph once.
func (g *Graph) Validate() error {
	if g.Data <= 0 || g.Total < g.Data {
		return fmt.Errorf("graph: invalid node counts data=%d total=%d", g.Data, g.Total)
	}
	next := g.Data
	for i, lv := range g.Levels {
		if lv.RightFirst != next {
			return fmt.Errorf("graph: level %d right range starts at %d, want %d", i, lv.RightFirst, next)
		}
		if lv.RightCount < 0 {
			return fmt.Errorf("graph: level %d has right count %d", i, lv.RightCount)
		}
		if lv.LeftFirst < 0 || lv.LeftFirst+lv.LeftCount > lv.RightFirst {
			return fmt.Errorf("graph: level %d left range [%d,%d) overlaps its right range",
				i, lv.LeftFirst, lv.LeftFirst+lv.LeftCount)
		}
		next += lv.RightCount
	}
	if next != g.Total {
		return fmt.Errorf("graph: levels cover %d nodes, total is %d", next, g.Total)
	}

	// Forward pass. stamp[l] is the last right node seen naming l — right
	// IDs are ≥ Data > 0, so zero means none — which makes a repeat within
	// one neighbor list a duplicate edge. wantOff counts the edges naming
	// each node, then becomes the offsets of the transposed adjacency.
	stamp := make([]int32, g.Total)
	wantOff := make([]int32, g.Total+1)
	for li, lv := range g.Levels {
		for r := lv.RightFirst; r < lv.RightFirst+lv.RightCount; r++ {
			if len(g.lefts[r]) == 0 {
				return fmt.Errorf("graph: right node %d has no left neighbors", r)
			}
			for _, l := range g.lefts[r] {
				if int(l) < lv.LeftFirst || int(l) >= lv.LeftFirst+lv.LeftCount {
					return fmt.Errorf("graph: edge (%d,%d) outside level %d left range", r, l, li)
				}
				if stamp[l] == int32(r) {
					return fmt.Errorf("graph: duplicate edge (%d,%d)", r, l)
				}
				stamp[l] = int32(r)
				wantOff[l+1]++
			}
		}
	}
	for v := 0; v < g.Total; v++ {
		wantOff[v+1] += wantOff[v]
	}
	// want[wantOff[v]:wantOff[v+1]] is what parents[v] must hold, in any
	// order: the forward adjacency transposed. fill[v] is v's next free slot.
	want := make([]int32, wantOff[g.Total])
	fill := stamp
	copy(fill, wantOff[:g.Total])
	for r := g.Data; r < g.Total; r++ {
		for _, l := range g.lefts[r] {
			want[fill[l]] = int32(r)
			fill[l]++
		}
	}

	// Reverse pass, one node at a time: stamp v's wanted parents with v+1,
	// then tick each listed parent off. A listed parent without the stamp
	// is not wanted (or is listed twice): a phantom edge. A stamp left over
	// is a forward edge the reverse index lacks.
	clear(stamp)
	for v := 0; v < g.Total; v++ {
		wanted := want[wantOff[v]:wantOff[v+1]]
		for _, r := range wanted {
			stamp[r] = int32(v) + 1
		}
		for _, r := range g.parents[v] {
			if int(r) < 0 || int(r) >= g.Total || stamp[r] != int32(v)+1 {
				return fmt.Errorf("graph: reverse index has phantom edge (%d,%d)", r, v)
			}
			stamp[r] = 0
		}
		if len(g.parents[v]) < len(wanted) {
			for _, r := range wanted {
				if stamp[r] == int32(v)+1 {
					return fmt.Errorf("graph: reverse index missing (%d,%d)", r, v)
				}
			}
		}
	}
	for v := 0; v < g.Data; v++ {
		if len(g.parents[v]) == 0 {
			return fmt.Errorf("graph: data node %d has no parity coverage", v)
		}
	}
	return nil
}

// Stats summarizes a graph for reports.
type Stats struct {
	Name          string
	Data          int
	Total         int
	Levels        int
	Edges         int
	AvgDataDegree float64
	MinDataDegree int
	MaxDataDegree int
}

// Summary computes a Stats snapshot.
func (g *Graph) Summary() Stats {
	s := Stats{
		Name:          g.Name,
		Data:          g.Data,
		Total:         g.Total,
		Levels:        len(g.Levels),
		Edges:         g.EdgeCount(),
		AvgDataDegree: g.AvgDataDegree(),
	}
	if g.Data > 0 {
		s.MinDataDegree = len(g.parents[0])
		for v := 0; v < g.Data; v++ {
			d := len(g.parents[v])
			if d < s.MinDataDegree {
				s.MinDataDegree = d
			}
			if d > s.MaxDataDegree {
				s.MaxDataDegree = d
			}
		}
	}
	return s
}

// String renders a short description of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %q: %d data + %d check nodes, %d levels, %d edges, avg data degree %.2f",
		g.Name, g.Data, g.Total-g.Data, len(g.Levels), g.EdgeCount(), g.AvgDataDegree())
}
