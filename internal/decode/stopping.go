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
//   - a violated check is a check outside S with exactly one left neighbor
//     in S, or a check in S with none; its options are its left neighbors,
//     plus the check itself when it is outside S;
//   - every stopping set T ⊇ S contains an option of every violated check
//     q — q itself (outside S), or one more of its left neighbors — so
//     branching on q's options o_0, o_1, …, where branch i adds o_i and
//     forbids o_0 … o_{i−1} in its whole subtree, partitions the search
//     space: T falls in exactly the branch of its first option. That holds
//     for any violated check, so the search takes the narrowest, the one
//     with the fewest options (the lowest ID among ties);
//   - data nodes below v0 are forbidden throughout;
//   - a set with no violated check is a stopping set: record it and stop
//     (every extension of it is a superset); a set of k nodes that is not
//     stuck is abandoned, so at k−1 members an option is only tested: it is
//     recorded with S when adding it would close S (closes), and nothing
//     is added.
//
// Every minimal failing set T of at most k nodes is recorded exactly once,
// from the root of its smallest data member: follow the branch containing
// T's next option at every step; S stays inside T, so the search stops at
// a stopping set S ⊆ T that holds v0, and minimality makes S = T. Distinct
// leaves are distinct sets, so nothing is recorded twice; some recorded
// sets may be non-minimal (a superset of another stopping set), which a
// caller counting failing sets must allow for.
//
// An enumerator is not safe for concurrent use; create one per goroutine.
// Many may share one read-only CSR.
type StoppingEnumerator struct {
	c *CSR

	in     []bool   // membership in S
	banned []bool   // forbidden by an earlier sibling branch
	cnt    []int32  // per check: its left neighbors in S
	viol   []uint64 // violated checks, a Words-long bitmask
	nviol  int      // violated checks: the bits set in viol

	members []int32 // S, in insertion order
	undo    []int32 // banned nodes, in ban order

	root int32
	k    int
	left int64 // options the search may still try (see Root)
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
// node IDs, and returns dst. The order is deterministic. The search tries
// at most budget options after v0 — adding one, or testing one at the last
// level, is one step; complete is false once that budget is spent, and dst
// may then hold only part of the root's sets. The number of stopping sets
// grows with k far faster than the search space shrinks — near k = Total
// there are few patterns and an astronomical number of sets — so a caller
// bounds the work by what its alternative costs.
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

// grow extends S through its narrowest violated check.
func (e *StoppingEnumerator) grow() {
	q := e.narrowest()
	if q < 0 {
		e.record()
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
// siblings; at k−1 members it records S ∪ {v} if v closes S, and the
// subtree is that one set. Members, forbidden nodes and data nodes below
// the root are not options, and nothing is once the budget is spent.
func (e *StoppingEnumerator) branch(v int32) {
	if e.in[v] || e.banned[v] || v < e.root || e.left == 0 {
		return
	}
	e.left--
	if len(e.members) == e.k-1 {
		if e.closes(v) {
			e.members = append(e.members, v)
			e.record()
			e.members = e.members[:len(e.members)-1]
		}
		return
	}
	e.add(v)
	e.grow()
	e.remove(v)
	e.banned[v] = true
	e.undo = append(e.undo, v)
}

// closes reports whether adding v, an option outside S, leaves no violated
// check: v makes no new one (it is not a check with no member below it,
// and no parent of v outside S goes from 0 members to 1) and fixes every
// one there is (each violated parent gains a member, and v, when violated
// itself, moves into S with its one).
func (e *StoppingEnumerator) closes(v int32) bool {
	fixed := 0
	if v >= e.c.Data {
		switch e.cnt[v] {
		case 0:
			return false
		case 1:
			fixed++
		}
	}
	for _, p := range e.c.Parents(v) {
		switch {
		case !e.in[p] && e.cnt[p] == 0:
			return false
		case e.isViolated(p):
			fixed++
		}
	}
	return fixed == e.nviol
}

// narrowest returns the violated check with the fewest options (its left
// neighbors, and itself when outside S), the lowest ID among ties, or −1
// when there is none.
func (e *StoppingEnumerator) narrowest() int32 {
	q, best := int32(-1), 0
	for w, x := range e.viol {
		for ; x != 0; x &= x - 1 {
			c := int32(w<<6 + bits.TrailingZeros64(x))
			n := len(e.c.LeftNeighbors(c))
			if !e.in[c] {
				n++
			}
			if q < 0 || n < best {
				q, best = c, n
			}
		}
	}
	return q
}

// record appends S, as ascending node IDs, to the output.
func (e *StoppingEnumerator) record() {
	set := make([]int, len(e.members))
	for i, v := range e.members {
		set[i] = int(v)
	}
	slices.Sort(set)
	e.out = append(e.out, set)
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

func (e *StoppingEnumerator) isViolated(v int32) bool {
	return e.viol[v>>6]&(1<<(uint(v)&63)) != 0
}

// update recomputes whether node v is a violated check, keeping nviol.
func (e *StoppingEnumerator) update(v int32) {
	now := v >= e.c.Data && (e.in[v] && e.cnt[v] == 0 || !e.in[v] && e.cnt[v] == 1)
	if now == e.isViolated(v) {
		return
	}
	e.viol[v>>6] ^= 1 << (uint(v) & 63)
	if now {
		e.nviol++
	} else {
		e.nviol--
	}
}
