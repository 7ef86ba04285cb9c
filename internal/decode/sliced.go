package decode

// Lanes is the pattern capacity of one SlicedKernel word: one uint64 lane
// per erasure pattern.
const Lanes = 64

// SlicedKernel evaluates up to 64 erasure patterns in one pass over the
// CSR adjacency by bit-slicing the peel state: lane L of every mask word
// belongs to pattern L, so the peeling rules advance all patterns
// simultaneously with word-wide boolean algebra instead of per-pattern
// counters.
//
// Layout (see DESIGN.md "Decoder kernels"):
//
//   - erased[v] is the lane-major transpose of the usual per-pattern
//     erasure bitmask: bit L set means node v is erased in pattern L.
//     missing[v] is the same transpose of the peel's working state.
//   - A check's per-lane missing-neighbor count never needs to be
//     materialized: the peel only asks "exactly one?" (rule 1) and
//     "exactly zero?" (rule 2), and both drop out of a carry-save
//     accumulation over the check's left neighbors — ones tracks count
//     parity, twos tracks "two or more", so count==1 is ones&^twos and
//     count==0 is ^ones&^twos. No popcount, no per-lane loop.
//   - Rule 1 fires for the lanes where the check is present and exactly
//     one neighbor is missing; each neighbor then recovers in
//     rescue & missing[l] — per lane there is only one such neighbor, so
//     the AND distributes the recovery correctly. Rule 2 recomputes a
//     missing check in the lanes where its count is zero. Both rules are
//     monotone (bits only clear), so the fixpoint terminates and, like
//     every peeling fixpoint, is independent of visit order — per lane the
//     result is exactly the test oracle's (ReferenceRecoverable).
//
// Eval visits only the checks adjacent to touched (somewhere-erased)
// nodes, returns a per-lane verdict bitmap, and leaves the erased masks
// intact for inspection. Nothing allocates in the steady state. A
// SlicedKernel is not safe for concurrent use; create one per goroutine.
// Many sliced kernels may share one read-only CSR (also with scalar
// Kernels).
type SlicedKernel struct {
	c    *CSR
	data int32

	active  uint64   // lanes holding a pattern; verdict bits outside are 0
	erased  []uint64 // [Total] lane-major erasure masks
	missing []uint64 // [Total] lane-major peel state; all-zero between Evals

	touched   []int32 // nodes with a nonzero erased mask
	isTouched []bool

	// Candidate checks of the current Eval: every check adjacent to a
	// touched node, plus every touched check (it may need rule-2
	// recomputation before it can rescue).
	checks  []int32
	onCheck []bool
}

// NewSlicedKernel returns an empty SlicedKernel over c: no active lanes,
// nothing erased.
func NewSlicedKernel(c *CSR) *SlicedKernel {
	return &SlicedKernel{
		c:         c,
		data:      c.Data,
		erased:    make([]uint64, c.Total),
		missing:   make([]uint64, c.Total),
		touched:   make([]int32, 0, c.Total),
		isTouched: make([]bool, c.Total),
		checks:    make([]int32, 0, c.Total),
		onCheck:   make([]bool, c.Total),
	}
}

// SetActive declares which lanes hold a pattern. Eval's verdict bitmap is
// masked to the active lanes; inactive lanes report 0 regardless of their
// erased bits.
func (s *SlicedKernel) SetActive(lanes uint64) { s.active = lanes }

// Erase marks node v erased in every lane of lanes. Erasures accumulate
// (a second call ORs in more lanes); Reset clears all of them.
func (s *SlicedKernel) Erase(v int, lanes uint64) {
	if lanes == 0 {
		return
	}
	if !s.isTouched[v] {
		s.isTouched[v] = true
		s.touched = append(s.touched, int32(v))
	}
	s.erased[v] |= lanes
}

// Reset clears every lane's erasure set and the active mask, returning
// the kernel to its post-NewSlicedKernel state without allocating.
func (s *SlicedKernel) Reset() {
	for _, v := range s.touched {
		s.erased[v] = 0
		s.isTouched[v] = false
	}
	s.touched = s.touched[:0]
	s.active = 0
}

// Thresholds sets out[L] to Decoder.Threshold(orders[L], from, limit) for
// up to 64 arrival orders at once: the length of the shortest prefix of
// each order that decodes, clamped to [from, limit+1]. Each order is a
// permutation of the node IDs; 0 <= from <= limit, and limit is clamped to
// Total. Decodability is monotone in the prefix, so every lane bisects its
// own prefix length, all lanes together: a step erases order[mid:] in each
// unfinished lane (moving only the nodes between its last mid and this
// one), one Eval answers every lane, and each lane moves lo or hi. A word
// takes about log2(limit−from) Evals, each a few sweeps of the graph's
// checks, so its lead over 64 scalar peels shrinks as the graph's peel
// chains grow (BenchmarkOrderThresholds; DESIGN.md). It starts and ends
// Reset, and nothing allocates.
func (s *SlicedKernel) Thresholds(orders [][]int, from, limit int, out []int) {
	limit = min(limit, len(s.erased))
	// T >= Data seeds lo: every block is an XOR of data blocks, so fewer
	// than Data of them cannot determine Data independent data blocks, and
	// no prefix shorter than Data decodes.
	lo0 := max(from, min(int(s.data), limit+1))
	var lo, hi, cut [Lanes]int // cut[L]: lane L has order[cut:] erased
	for L, order := range orders {
		lo[L], hi[L], cut[L] = lo0, limit+1, len(order)
	}
	s.Reset()
	for {
		var active uint64
		for L, order := range orders {
			if lo[L] >= hi[L] {
				continue
			}
			lane := uint64(1) << uint(L)
			active |= lane
			mid := (lo[L] + hi[L]) / 2
			if mid < cut[L] {
				for _, v := range order[mid:cut[L]] {
					s.Erase(v, lane)
				}
			} else {
				for _, v := range order[cut[L]:mid] {
					s.erased[v] &^= lane
				}
			}
			cut[L] = mid
		}
		if active == 0 {
			break
		}
		s.active = active
		ok := s.Eval()
		for L, order := range orders {
			lane := uint64(1) << uint(L)
			if active&lane == 0 {
				continue
			}
			if ok&lane != 0 {
				hi[L] = cut[L]
			} else {
				lo[L] = cut[L] + 1
			}
			if lo[L] >= hi[L] {
				// Done: un-erase the lane, so its last probe neither
				// stretches the later Evals' fixpoints nor, failed, keeps
				// them from stopping early.
				for _, v := range order[cut[L]:] {
					s.erased[v] &^= lane
				}
			}
		}
	}
	copy(out, lo[:len(orders)])
	s.Reset()
}

// Eval runs the bit-sliced peeling fixpoint over all lanes at once and
// returns the per-lane verdict bitmap: bit L set means pattern L is
// recoverable (every data node it erased peels back). Only active lanes
// report; the erased masks are untouched, so lanes can be re-evaluated
// afterwards.
func (s *SlicedKernel) Eval() uint64 {
	if s.active == 0 {
		return 0
	}
	// Seed the peel state and collect the candidate checks. Nodes outside
	// touched keep missing == 0, which the inner loops read as "present in
	// every lane" — exactly right.
	checks := s.checks[:0]
	for _, v := range s.touched {
		s.missing[v] = s.erased[v]
		for _, p := range s.c.Parents(v) {
			if !s.onCheck[p] {
				s.onCheck[p] = true
				checks = append(checks, p)
			}
		}
		if v >= s.data && !s.onCheck[v] {
			s.onCheck[v] = true
			checks = append(checks, v)
		}
	}

	for {
		// The updates are unconditional: whether a lane changes is data,
		// and a branch on it mispredicts; clearing no bits is harmless.
		// changed collects the lanes that moved this sweep.
		var changed uint64
		for _, r := range checks {
			// Carry-save count of r's missing left neighbors, all lanes at
			// once: ones = parity, twos = "two or more".
			var ones, twos uint64
			for _, l := range s.c.LeftNeighbors(r) {
				m := s.missing[l]
				twos |= ones & m
				ones ^= m
			}
			// Rule 2: a missing check with zero missing left neighbors is
			// recomputed from them.
			mr := s.missing[r]
			re := mr & ^ones & ^twos
			mr &^= re
			s.missing[r] = mr
			changed |= re
			// Rule 1: a present check with exactly one missing left
			// neighbor recovers it. Per qualifying lane exactly one
			// neighbor holds the missing bit, so ANDing the rescue lanes
			// into each neighbor clears precisely that node.
			if rescue := ^mr & ones & ^twos; rescue != 0 {
				for _, l := range s.c.LeftNeighbors(r) {
					m := s.missing[l]
					changed |= m & rescue
					s.missing[l] = m &^ rescue
				}
			}
		}
		var failed uint64
		for _, v := range s.touched {
			if v < s.data {
				failed |= s.missing[v]
			}
		}
		if failed == 0 || changed == 0 {
			// Restore the between-Evals invariant (missing all-zero, no
			// candidate marks) before reporting.
			for _, v := range s.touched {
				s.missing[v] = 0
			}
			for _, r := range checks {
				s.onCheck[r] = false
			}
			s.checks = checks[:0]
			return s.active &^ failed
		}
	}
}
