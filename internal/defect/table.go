package defect

import (
	"math/bits"

	"tornado/internal/graph"
)

// Table is the precomputed bitmask view of one left-node range that the
// closed-set kernel evaluates: for every left node in the range, a bitmask
// of its parent checks over a dense right-index space (only the checks
// actually adjacent to the range get an index, so the masks stay one or two
// words long on the paper's graphs). A Table is built once per scan and
// then shared read-only by any number of Kernels (one per worker
// goroutine), exactly like decode.CSR under the peeling kernels.
//
// A Table does not observe later mutations of the source graph (AddEdge,
// RewireEdge, …); build a fresh Table after rewiring.
type Table struct {
	Level     int // index of the level this range belongs to (0 = data)
	LeftFirst int // first left node ID of the range
	LeftCount int // number of left nodes in the range

	rights []int32  // dense right index -> graph node ID, ascending
	words  int      // mask stride: 64-bit words per left node
	masks  []uint64 // masks[l*words:(l+1)*words]: dense parent set of left node LeftFirst+l
}

// NewDataTable builds the Table of the data-node range [0, g.Data) — the
// range ScanDataLevelCtx and generation's repair screen evaluate.
func NewDataTable(g *graph.Graph) *Table {
	return newTable(g, 0, 0, g.Data)
}

// NewLevelTable builds the Table of level li's left range.
func NewLevelTable(g *graph.Graph, li int) *Table {
	lv := g.Levels[li]
	return newTable(g, li, lv.LeftFirst, lv.LeftCount)
}

func newTable(g *graph.Graph, level, leftFirst, leftCount int) *Table {
	t := &Table{Level: level, LeftFirst: leftFirst, LeftCount: leftCount}

	// Collect the distinct parents of the range, ascending: flag them in a
	// dense index over the node space, then number the flagged IDs in order.
	dense := make([]int32, g.Total)
	for l := leftFirst; l < leftFirst+leftCount; l++ {
		for _, p := range g.Parents(l) {
			dense[p] = 1
		}
	}
	for r, flagged := range dense {
		if flagged != 0 {
			dense[r] = int32(len(t.rights))
			t.rights = append(t.rights, int32(r))
		}
	}
	t.words = (len(t.rights) + 63) / 64
	t.masks = make([]uint64, leftCount*t.words)
	for i := range leftCount {
		m := t.mask(i)
		for _, p := range g.Parents(leftFirst + i) {
			m[dense[p]>>6] |= 1 << (dense[p] & 63)
		}
	}
	return t
}

// mask returns the dense parent set of left node LeftFirst+l.
func (t *Table) mask(l int) []uint64 { return t.masks[l*t.words : (l+1)*t.words] }

// Rights returns the number of distinct checks adjacent to the range.
func (t *Table) Rights() int { return len(t.rights) }

// Kernel evaluates the closed-set condition of paper §3.2 incrementally: it
// maintains, for every check adjacent to the table's left range, the count
// of current member nodes that check references, plus two derived tallies —
// covered (checks with at least one member neighbor) and ones (checks with
// exactly one). A member set S is closed exactly when ones == 0 and
// covered > 0: every adjacent check sees two or more members, so losing S
// leaves each of them permanently short (IsClosedSet's condition), which
// makes Closed an O(1) read after an O(degree) Add/Remove delta.
//
// Driven in revolving-door order (combin.GrayNext) the kernel evaluates one
// subset per two mask walks instead of rebuilding a count map per subset.
// Nothing allocates after NewKernel. A Kernel is not safe for
// concurrent use; create one per goroutine. Many kernels may share one
// read-only Table.
type Kernel struct {
	t       *Table
	count   []int32 // count[dense right] = members adjacent to that check
	ones    int     // checks with exactly one member neighbor
	covered int     // checks with at least one member neighbor
}

// NewKernel returns a Kernel over t with an empty member set.
func NewKernel(t *Table) *Kernel {
	return &Kernel{t: t, count: make([]int32, len(t.rights))}
}

// Table returns the mask table this kernel evaluates.
func (k *Kernel) Table() *Table { return k.t }

// Add inserts left node LeftFirst+l (l is the range-local index) into the
// member set, updating the per-check counts by one mask walk.
func (k *Kernel) Add(l int) {
	for i, w := range k.t.mask(l) {
		for ; w != 0; w &= w - 1 {
			r := i<<6 + bits.TrailingZeros64(w)
			c := k.count[r]
			k.count[r] = c + 1
			switch c {
			case 0:
				k.covered++
				k.ones++
			case 1:
				k.ones--
			}
		}
	}
}

// Remove deletes left node LeftFirst+l from the member set. The node must
// be a member.
func (k *Kernel) Remove(l int) {
	for i, w := range k.t.mask(l) {
		for ; w != 0; w &= w - 1 {
			r := i<<6 + bits.TrailingZeros64(w)
			c := k.count[r] - 1
			k.count[r] = c
			switch c {
			case 0:
				k.covered--
				k.ones--
			case 1:
				k.ones++
			}
		}
	}
}

// Swap applies a revolving-door step: local index out leaves the member
// set, local index in enters it.
func (k *Kernel) Swap(out, in int) {
	k.Remove(out)
	k.Add(in)
}

// Closed reports whether the current member set is a closed set: it touches
// at least one check and every touched check has two or more member
// neighbors.
func (k *Kernel) Closed() bool { return k.ones == 0 && k.covered > 0 }

// Reset empties the member set.
func (k *Kernel) Reset() {
	clear(k.count)
	k.ones, k.covered = 0, 0
}

// sealingRights appends the graph IDs of every check adjacent to the
// current member set (ascending — the dense index order is ID order).
func (k *Kernel) sealingRights(dst []int) []int {
	for i, c := range k.count {
		if c > 0 {
			dst = append(dst, int(k.t.rights[i]))
		}
	}
	return dst
}
