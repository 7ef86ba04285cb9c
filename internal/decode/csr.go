package decode

import "tornado/internal/graph"

// CSR is a flat-array (compressed sparse row) snapshot of a graph's
// adjacency, built once and then shared read-only by any number of
// evaluators (one per worker goroutine). Both directions are flattened into
// offset + adjacency pairs so the peeling inner loops walk contiguous int32
// slices instead of chasing the per-node slice headers of graph.Graph — the
// exhaustive scans evaluate tens of millions of patterns, so the pointer
// indirection per neighbor list is measurable.
//
// The snapshot is O(edges) and holds nothing else: every evaluator walks
// the offset arrays alone, so no graph ever pays for an O(Total²) table.
//
// A CSR does not observe later mutations of the source graph (AddEdge,
// RewireEdge, …); build a fresh CSR (or Decoder) after adjusting a graph.
// This is the access pattern of the certification loops, which re-certify
// a rewired graph from scratch anyway.
type CSR struct {
	Data  int32 // data node count; IDs 0..Data-1
	Total int32 // total node count

	// Parents of node v (the right nodes referencing v):
	// parAdj[parOff[v]:parOff[v+1]].
	parOff []int32
	parAdj []int32

	// Left neighbors of right node r: leftAdj[leftOff[r]:leftOff[r+1]].
	// Data nodes have empty ranges.
	leftOff []int32
	leftAdj []int32

	// Words is the length of a node bitmask: ceil(Total/64).
	Words int
}

// NewCSR flattens g's adjacency. The graph is not retained.
func NewCSR(g *graph.Graph) *CSR {
	c := &CSR{
		Data:    int32(g.Data),
		Total:   int32(g.Total),
		Words:   (g.Total + 63) / 64,
		parOff:  make([]int32, g.Total+1),
		leftOff: make([]int32, g.Total+1),
	}
	var nPar, nLeft int32
	for v := 0; v < g.Total; v++ {
		c.parOff[v] = nPar
		nPar += int32(len(g.Parents(v)))
		c.leftOff[v] = nLeft
		if g.IsRight(v) {
			nLeft += int32(len(g.LeftNeighbors(v)))
		}
	}
	c.parOff[g.Total] = nPar
	c.leftOff[g.Total] = nLeft
	c.parAdj = make([]int32, 0, nPar)
	c.leftAdj = make([]int32, 0, nLeft)
	for v := 0; v < g.Total; v++ {
		c.parAdj = append(c.parAdj, g.Parents(v)...)
		if g.IsRight(v) {
			c.leftAdj = append(c.leftAdj, g.LeftNeighbors(v)...)
		}
	}
	return c
}

// Parents returns the right nodes referencing v. The caller must not
// mutate the returned slice.
func (c *CSR) Parents(v int32) []int32 { return c.parAdj[c.parOff[v]:c.parOff[v+1]] }

// LeftNeighbors returns the left-neighbor list of right node r. The caller
// must not mutate the returned slice.
func (c *CSR) LeftNeighbors(r int32) []int32 { return c.leftAdj[c.leftOff[r]:c.leftOff[r+1]] }
