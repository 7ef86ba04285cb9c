package decode

import (
	"math/bits"
	"slices"
)

// A stopping set is a node set S in which peeling cannot start: no check
// outside S has exactly one left neighbor in S (rule 1 would recover it),
// and no check inside S has none (rule 2 would recompute it).
//
// Peeling an erasure E stops at the largest stopping set inside E. Stopping
// sets are closed under union (a check outside S1 ∪ S2 sees 0 or ≥ 2
// members of each, so never exactly one of the union; a check inside sees
// at least one), so that largest set exists, and peeling never recovers one
// of its nodes: the first recovery would be a rule applied to a check whose
// view of the set is exactly what the definition excludes. The residue at
// the fixpoint is itself a stopping set (no rule applies). So E loses data
// iff E contains a stopping set holding a data node, and loss is monotone
// in E. A minimal failing set F is therefore such a stopping set itself —
// the stopping set inside F already fails, and no proper subset of F does.
//
// StoppingEnumerator finds, for one root data node v0 at a time, stopping
// sets of at most k nodes whose smallest data member is v0, by a
// depth-first search from S = {v0}:
//
//   - take the lowest-numbered violated check q: a check outside S with
//     exactly one left neighbor in S, or a check in S with none;
//   - every stopping set T ⊇ S contains a node that fixes q — q itself
//     (outside S), or one more of its left neighbors — so branch on those
//     options o_0, o_1, …, where branch i adds o_i and forbids
//     o_0 … o_{i−1} in its whole subtree; T falls in exactly the branch of
//     its first option, so the branches partition the search space;
//   - data nodes below v0 are forbidden throughout;
//   - a set with no violated check is a stopping set: record it and stop
//     (every extension of it is a superset); a set of k nodes that is not
//     stuck is abandoned.
//
// Every minimal failing set T of at most k nodes is recorded exactly once,
// from the root of its smallest data member: follow the branch containing
// T's next option at every step; S stays inside T, so the search stops at
// a stopping set S ⊆ T that holds v0, and minimality makes S = T. Distinct
// leaves are distinct sets, so nothing is recorded twice; some recorded
// sets may be non-minimal (a superset of a stopping set found from another
// root), which a caller counting failing sets must allow for.
//
// An enumerator is not safe for concurrent use; create one per goroutine.
// Many may share one read-only CSR.
type StoppingEnumerator struct {
	c *CSR

	in     []bool   // membership in S
	banned []bool   // forbidden by an earlier sibling branch
	cnt    []int32  // per check: its left neighbors in S
	viol   []uint64 // violated checks, a Words-long bitmask

	members []int32 // S, in insertion order
	undo    []int32 // banned nodes, in ban order

	root int32
	k    int
	left int64 // nodes the search may still add (see Root)
	out  [][]int
}

// NewStoppingEnumerator returns an enumerator over c with an empty set.
func NewStoppingEnumerator(c *CSR) *StoppingEnumerator {
	total := int(c.Total)
	return &StoppingEnumerator{
		c:      c,
		in:     make([]bool, total),
		banned: make([]bool, total),
		cnt:    make([]int32, total),
		viol:   make([]uint64, c.Words),
	}
}

// Root appends to dst every stopping set the search from data node v0
// records with at most k nodes (see StoppingEnumerator), each as ascending
// node IDs, and returns dst. The order is deterministic. The search adds at
// most budget nodes to S after v0; complete is false once that budget is
// spent, and dst may then hold only part of the root's sets. The number of
// stopping sets grows with k far faster than the search space shrinks —
// near k = Total there are few patterns and an astronomical number of
// sets — so a caller bounds the work by what its alternative costs.
func (e *StoppingEnumerator) Root(dst [][]int, v0, k int, budget int64) (_ [][]int, complete bool) {
	if k < 1 || v0 < 0 || v0 >= int(e.c.Data) {
		return dst, true
	}
	e.root, e.k, e.left, e.out = int32(v0), k, budget, dst
	e.add(int32(v0))
	e.grow()
	e.remove(int32(v0))
	dst, e.out = e.out, nil
	return dst, e.left > 0
}

// grow extends S through its lowest-numbered violated check.
func (e *StoppingEnumerator) grow() {
	q := e.firstViolated()
	if q < 0 {
		set := make([]int, len(e.members))
		for i, v := range e.members {
			set[i] = int(v)
		}
		slices.Sort(set)
		e.out = append(e.out, set)
		return
	}
	if len(e.members) == e.k {
		return
	}
	mark := len(e.undo)
	if !e.in[q] {
		e.branch(q)
	}
	for _, l := range e.c.LeftNeighbors(q) {
		e.branch(l)
	}
	for _, v := range e.undo[mark:] {
		e.banned[v] = false
	}
	e.undo = e.undo[:mark]
}

// branch searches the subtree that adds v, then forbids v to the later
// siblings. Members, forbidden nodes and data nodes below the root are not
// options, and nothing is once the budget is spent.
func (e *StoppingEnumerator) branch(v int32) {
	if e.in[v] || e.banned[v] || v < e.root || e.left == 0 {
		return
	}
	e.left--
	e.add(v)
	e.grow()
	e.remove(v)
	e.banned[v] = true
	e.undo = append(e.undo, v)
}

func (e *StoppingEnumerator) firstViolated() int32 {
	for w, x := range e.viol {
		if x != 0 {
			return int32(w<<6 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

func (e *StoppingEnumerator) add(v int32) {
	e.in[v] = true
	e.members = append(e.members, v)
	e.update(v)
	for _, p := range e.c.Parents(v) {
		e.cnt[p]++
		e.update(p)
	}
}

func (e *StoppingEnumerator) remove(v int32) {
	e.in[v] = false
	e.members = e.members[:len(e.members)-1]
	e.update(v)
	for _, p := range e.c.Parents(v) {
		e.cnt[p]--
		e.update(p)
	}
}

// update recomputes whether node v is a violated check.
func (e *StoppingEnumerator) update(v int32) {
	bit := uint64(1) << (uint(v) & 63)
	if v >= e.c.Data && (e.in[v] && e.cnt[v] == 0 || !e.in[v] && e.cnt[v] == 1) {
		e.viol[v>>6] |= bit
	} else {
		e.viol[v>>6] &^= bit
	}
}
