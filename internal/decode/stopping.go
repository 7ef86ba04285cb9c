package decode

import (
	"slices"

	"tornado/internal/graph"
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
// sets of at most k nodes that hold v0, by a depth-first search from
// S = {v0}:
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
//   - data nodes below the root's lower bound lo are forbidden throughout,
//     and so are the nodes the enumerator was told are never erased;
//   - a set with no violated check is a stopping set: record it and stop
//     (every extension of it is a superset); a set of k nodes that is not
//     stuck is abandoned, so at k−1 members an option is only tested: it is
//     recorded with S when adding it would close S (closes), and nothing
//     is added.
//
// Every minimal failing set T of at most k nodes that holds v0, has no data
// node below lo and no never-erased node is recorded: follow the branch
// containing T's next option at every step; S stays inside T, so the search
// stops at a stopping set S ⊆ T that holds v0, and minimality makes S = T.
// With lo = v0 that is every such T whose smallest data member is v0, so
// the roots in turn record each exactly once. Distinct leaves are distinct
// sets, so nothing is recorded twice; some recorded sets may be non-minimal
// (a superset of another stopping set), which a caller counting failing sets
// must allow for.
//
// With every check never erased, a stopping set is a set of data nodes each
// of whose checks sees two or more of them: paper §3.2's closed sets, which
// internal/defect lists this way.
//
// Each check counts the nodes of its equation — itself and its left
// neighbors — that are in S; it is violated exactly when that count is 1,
// the one unknown a peeling rule solves for. The violated checks are kept
// on a trail: the checks that turned violated on the current path of the
// search, in that order, each live while its count is 1. Adding a node only
// raises counts, so along a path a check turns violated at most once and,
// once it stops, stays stopped until the search backs up past the node that
// stopped it; backing up restores the counts, which revives those entries,
// and cuts the trail back to where the removed node found it. So a step
// costs O(the members' checks), not O(Total), and no node needs a position
// in a list.
//
// An enumerator reads its graph at every step and keeps no state between
// roots, so the graph may be edited between two Roots but not during one.
// It is not safe for concurrent use; create one per goroutine. Many may
// share one graph.
type StoppingEnumerator struct {
	g    *graph.Graph
	data int32 // g.Data

	banned []bool      // never erased, in S, or forbidden by an earlier sibling branch
	cnt    []int32     // per check: the nodes of its equation in S
	trail  []violation // the checks that turned violated on the path to S, in order
	nviol  int         // the violated checks: trail entries whose count is 1

	members []int32 // S, in insertion order
	undo    []int32 // nodes banned by a sibling branch, in ban order

	lo   int32 // data nodes below lo are not options
	k    int
	left int64 // options the search may still try (see Root)
	out  [][]int
}

// violation is a trail entry: a check and its option count when it turned
// violated, which holds whenever its count is 1 again.
type violation struct{ q, options int32 }

// NewStoppingEnumerator returns an enumerator over g with an empty set.
// never, when not nil, reports the nodes that are never erased: they are
// never options, so no recorded set holds one.
func NewStoppingEnumerator(g *graph.Graph, never func(v int) bool) *StoppingEnumerator {
	e := &StoppingEnumerator{
		g:      g,
		data:   int32(g.Data),
		banned: make([]bool, g.Total),
		cnt:    make([]int32, g.Total),
	}
	if never != nil {
		for v := range e.banned {
			e.banned[v] = never(v)
		}
	}
	return e
}

// Root appends to dst every stopping set the search from data node v0
// records with at most k nodes, none of them a data node below lo (see
// StoppingEnumerator), each as ascending node IDs, and returns dst; lo must
// not exceed v0. The order is deterministic. The search tries at most
// budget options after v0 — adding one, or testing one at the last level,
// is one step; complete is false once that budget is spent, and dst may
// then hold only part of the root's sets. The number of stopping sets
// grows with k far faster than the search space shrinks — near k = Total
// there are few patterns and an astronomical number of sets — so a caller
// bounds the work by what its alternative costs.
func (e *StoppingEnumerator) Root(dst [][]int, v0, lo, k int, budget int64) (_ [][]int, complete bool) {
	if k < 1 || v0 < 0 || v0 >= e.g.Data || e.banned[v0] {
		return dst, true
	}
	e.lo, e.k, e.left, e.out = int32(lo), k, budget, dst
	mark := e.add(int32(v0))
	e.grow()
	e.remove(int32(v0), mark)
	e.banned[v0] = false
	dst, e.out = e.out, nil
	return dst, e.left > 0
}

// grow extends S through its narrowest violated check: the check itself
// when it is outside S, then its left neighbors.
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
	if e.open(q) {
		e.branch(q)
	}
	for _, l := range e.g.LeftNeighbors(int(q)) {
		if e.open(l) {
			e.branch(l)
		}
	}
	for _, v := range e.undo[mark:] {
		e.banned[v] = false
	}
	e.undo = e.undo[:mark]
}

// open reports whether v is an option: members, banned nodes and data nodes
// below lo are not, and nothing is once the budget is spent.
func (e *StoppingEnumerator) open(v int32) bool {
	return !e.banned[v] && v >= e.lo && e.left > 0
}

// branch searches the subtree that adds option v, then leaves v banned to
// the later siblings; at k−1 members it records S ∪ {v} if v closes S, and
// the subtree is that one set.
func (e *StoppingEnumerator) branch(v int32) {
	e.left--
	if len(e.members) == e.k-1 {
		if e.closes(v) {
			e.members = append(e.members, v)
			e.record()
			e.members = e.members[:len(e.members)-1]
		}
		return
	}
	mark := e.add(v)
	e.grow()
	e.remove(v, mark)
	e.undo = append(e.undo, v)
}

// closes reports whether adding v, an option outside S, leaves no violated
// check: adding v raises the count of v itself, when it is a check, and of
// each of its parents, and none of them may go from 0 to 1 while every
// violated check must go from 1 to 2.
func (e *StoppingEnumerator) closes(v int32) bool {
	fixed := 0
	if v >= e.data {
		switch e.cnt[v] {
		case 0:
			return false
		case 1:
			fixed++
		}
	}
	for _, p := range e.g.Parents(int(v)) {
		switch e.cnt[p] {
		case 0:
			return false
		case 1:
			fixed++
		}
	}
	return fixed == e.nviol
}

// narrowest returns the violated check with the fewest options, the lowest
// ID among ties, or −1 when there is none.
func (e *StoppingEnumerator) narrowest() int32 {
	q, best := int32(-1), int32(0)
	for _, c := range e.trail {
		if (q < 0 || c.options < best || c.options == best && c.q < q) && e.cnt[c.q] == 1 {
			q, best = c.q, c.options
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

// add puts v into S, banned as an option while it is there, and returns
// the trail's length before it. A check that v's arrival makes violated
// goes on the trail with its options: its left neighbors, plus itself when
// it is outside S (a parent of v, not v).
func (e *StoppingEnumerator) add(v int32) (mark int) {
	mark = len(e.trail)
	e.banned[v] = true
	e.members = append(e.members, v)
	if v >= e.data {
		e.raise(v, 0)
	}
	for _, p := range e.g.Parents(int(v)) {
		e.raise(p, 1)
	}
	return mark
}

// remove takes v, the last member, out of S, and the trail back to mark;
// v stays banned.
func (e *StoppingEnumerator) remove(v int32, mark int) {
	e.members = e.members[:len(e.members)-1]
	if v >= e.data {
		e.lower(v)
	}
	for _, p := range e.g.Parents(int(v)) {
		e.lower(p)
	}
	e.trail = e.trail[:mark]
}

// raise adds one to check q's count, keeping nviol; at 1, q goes on the
// trail with self more options than its left neighbors.
func (e *StoppingEnumerator) raise(q, self int32) {
	e.cnt[q]++
	switch e.cnt[q] {
	case 1:
		e.nviol++
		e.trail = append(e.trail, violation{q, int32(len(e.g.LeftNeighbors(int(q)))) + self})
	case 2:
		e.nviol--
	}
}

// lower takes one from check q's count, keeping nviol.
func (e *StoppingEnumerator) lower(q int32) {
	e.cnt[q]--
	switch e.cnt[q] {
	case 0:
		e.nviol--
	case 1:
		e.nviol++
	}
}
