package sim

import (
	"context"
	"fmt"
	"math/bits"

	"tornado/internal/combin"
	"tornado/internal/decode"
)

// This file is the exhaustive scan: it drives decode.SlicedKernel over a
// revolving-door rank range, 64 erasure patterns per machine word, in
// rank order, so every downstream guarantee (campaign sharding, cached
// shards, lex-smallest witness merging, worker-count independence) rests
// on one implementation. The one-pattern-per-step scalar loop it replaced
// survives as the differential oracle in scalar_test.go.
//
// The word layout falls out of Algorithm R itself (Knuth 7.2.1.3): the
// enumeration's "easy step" moves only the smallest element idx[0] —
// ascending toward idx[1] when k is odd, descending toward 0 when k is
// even — and the conditions are closed-form, so a maximal run of
// consecutive ranks sharing the suffix idx[1:] is computable from the
// current state without stepping. Runs average C(n,k)/C(n-1,k-1) = n/k
// patterns (≈19 for n=96, k=5), so the scan pays one GrayNext and one
// two-node suffix delta per run instead of per pattern, then lays the
// run's sweeping element c0 across word lanes.
//
// Most lanes never reach the peeling fixpoint. The scanner maintains,
// incrementally across suffix deltas, the rule-1 certificate structure
// of the shared suffix S = idx[1:] (m, zeroCheck, oneCheck, goodData
// below), from which a per-run node mask of provably recoverable
// sweeping elements follows in a handful of word operations
// (runCertificate); each word of the run then extracts its window of
// that mask in O(1). Only the lanes the certificate cannot prove are
// enqueued — with their full patterns — into a 64-lane SlicedKernel
// batch that flushes when full, so the expensive word-wide fixpoint
// always runs at full occupancy. The pruning soundness argument is
// spelled out at runCertificate and in DESIGN.md "Decoder kernels".

// scanner is the state of one scanning goroutine, reused from range to
// range and cardinality to cardinality (scanRange re-aims it). Not safe
// for concurrent use; a LocalRunner holds one per worker.
type scanner struct {
	csr  *decode.CSR
	data int32

	// leftMask is the CSR's check-neighbor mask table (decode.CSR.Masks),
	// captured at construction; leftMaskOf cuts a check's row from it.
	leftMask []uint64

	// Incremental certificate structure of the shared suffix S (all node
	// bitmasks are Words-long, over node IDs):
	//
	//   sufMask   — members of S
	//   m[q]      — |S ∩ L(q)| for each check q
	//   zeroCheck — checks q ∉ S with m[q] == 0: erasing exactly one of
	//               their left neighbors leaves them rule-1 rescuers
	//   oneCheck  — checks q ∉ S with m[q] == 1: each is a valid rule-1
	//               rescuer of its single missing neighbor right now
	m         []int32
	sufMask   []uint64
	zeroCheck []uint64
	oneCheck  []uint64

	// kidAdj[kidOff[q]:kidOff[q+1]] is L(q) restricted to data nodes: the
	// sweeping elements check q can vouch for (see goodRun).
	kidOff []int32
	kidAdj []int32

	// goodRun marks sweeping elements provably recoverable alongside a
	// certified suffix: check bits always set (an erased check never
	// loses data by itself), and a data bit when gcount > 0 — some
	// parent is a zeroCheck (rescues c at round 1) or a oneCheck
	// (missing {v_p, c} at round 1; v_p is rescued by its own disjoint
	// oneCheck rescuer in every lane outside badNodes, so the parent
	// fires at round 2). gcount[c] counts c's parents in zeroCheck ∪
	// oneCheck; membership there only flips when m crosses 1↔2 or the
	// check itself enters/leaves S — never on the busy 0↔1 boundary —
	// so the incremental cascades stay rare.
	gcount   []int32
	goodRun  []uint64
	badNodes []uint64 // per-run scratch: sweeping elements that break the certificate

	// The fields from here to batchLen are sized by the cardinality being
	// scanned (see aim): kcap is the largest seen so far, ints the slab
	// idx and batchPat are cut from.
	kcap int
	ints []int

	// runCertificate scratch: per-suffix-member masks of certificate-
	// breaking sweeping elements (flat, stride Words), and which data
	// members had no round-1 rescuer and needed the two-round fallback.
	bv        []uint64
	deficient []bool

	idx []int // current combination (len k); idx[1:] is the suffix the certificate structure tracks

	// Batch of unproven lanes, accumulated across runs so the word-wide
	// fixpoint always evaluates at full occupancy. batchPat holds each
	// slot's full pattern (stride k) for failure recording at flush time.
	sk       *decode.SlicedKernel
	batchPat []int
	batchLen int

	// onVerdict, when set, observes every pattern's rank and verdict —
	// including certificate-pruned lanes that never reach the fixpoint —
	// so tests can re-check pruning soundness against the scalar kernel.
	// The idx slice is reused; don't retain. Forces per-word batch
	// flushes so verdicts arrive in rank order.
	onVerdict func(rank int64, idx []int, recoverable bool)
}

// newScanner returns a scanner over csr with an empty suffix. Its
// per-node state comes out of one allocation per element type, so
// setting up a scan costs no more allocations than a single-pattern
// kernel does. The first scanner (or decode.Kernel) over a CSR also builds
// its mask tables, which the suffix certificate reads.
func newScanner(csr *decode.CSR) *scanner {
	total, words := int(csr.Total), csr.Words
	leftMask, _ := csr.Masks()
	nKids := 0
	for q := csr.Data; q < csr.Total; q++ {
		for _, l := range csr.LeftNeighbors(q) {
			if l < csr.Data {
				nKids++
			}
		}
	}
	i32 := make([]int32, total+int(csr.Data)+total+1+nKids)
	cutI32 := func(n int) []int32 {
		out := i32[:n:n]
		i32 = i32[n:]
		return out
	}
	u64 := make([]uint64, 5*words)
	cutU64 := func() []uint64 {
		out := u64[:words:words]
		u64 = u64[words:]
		return out
	}
	s := &scanner{
		csr:       csr,
		data:      csr.Data,
		leftMask:  leftMask,
		m:         cutI32(total),
		gcount:    cutI32(int(csr.Data)),
		kidOff:    cutI32(total + 1),
		kidAdj:    cutI32(nKids)[:0],
		sufMask:   cutU64(),
		zeroCheck: cutU64(),
		oneCheck:  cutU64(),
		goodRun:   cutU64(),
		badNodes:  cutU64(),
		sk:        decode.NewSlicedKernel(csr),
	}
	// Empty suffix: every check is a zeroCheck, every check bit of
	// goodRun is permanently good.
	for q := csr.Data; q < csr.Total; q++ {
		s.goodRun[q>>6] |= 1 << (uint(q) & 63)
		for _, l := range csr.LeftNeighbors(q) {
			if l < csr.Data {
				s.kidAdj = append(s.kidAdj, l)
			}
		}
		s.kidOff[q+1] = int32(len(s.kidAdj))
		s.zeroCheck[q>>6] |= 1 << (uint(q) & 63)
		s.goodInc(q)
	}
	return s
}

func (s *scanner) dataKids(q int32) []int32 { return s.kidAdj[s.kidOff[q]:s.kidOff[q+1]] }

// leftMaskOf returns check q's left neighbors as a Words-long bitmask.
func (s *scanner) leftMaskOf(q int32) []uint64 {
	words := s.csr.Words
	return s.leftMask[int(q)*words : (int(q)+1)*words]
}

// aim points the scanner at the combination of cardinality k with
// revolving-door rank lo: the previous range's suffix is withdrawn
// (which returns the certificate structure to its empty-suffix state),
// the k-sized buffers are re-cut — reallocated only when k outgrows them
// — and the new suffix is entered.
func (s *scanner) aim(k int, lo int64) {
	if len(s.idx) > 0 {
		for _, v := range s.idx[1:] {
			s.restoreSuffix(v)
		}
	}
	s.sk.Reset()
	if k > s.kcap {
		s.kcap = k
		s.ints = make([]int, (1+decode.Lanes)*k)
		s.bv = make([]uint64, max(k-1, 1)*s.csr.Words)
		s.deficient = make([]bool, max(k-1, 1))
	}
	s.idx = s.ints[:k:k]
	s.batchPat = s.ints[k : (1+decode.Lanes)*k]
	s.batchLen = 0

	combin.GrayUnrank(s.idx, int(s.csr.Total), lo)
	for _, v := range s.idx[1:] {
		s.eraseSuffix(v)
	}
}

// goodInc credits check q (entering zeroCheck ∪ oneCheck) to its data
// children.
func (s *scanner) goodInc(q int32) {
	for _, l := range s.dataKids(q) {
		s.gcount[l]++
		if s.gcount[l] == 1 {
			s.goodRun[l>>6] |= 1 << (uint(l) & 63)
		}
	}
}

// goodDec removes check q (leaving zeroCheck ∪ oneCheck) from its data
// children.
func (s *scanner) goodDec(q int32) {
	for _, l := range s.dataKids(q) {
		s.gcount[l]--
		if s.gcount[l] == 0 {
			s.goodRun[l>>6] &^= 1 << (uint(l) & 63)
		}
	}
}

// eraseSuffix adds v to the shared suffix, keeping every certificate
// mask exact. Erased checks are excluded from zeroCheck/oneCheck; their
// m counts keep accumulating so restoreSuffix can reclassify them.
func (s *scanner) eraseSuffix(v int) {
	bit := uint64(1) << (uint(v) & 63)
	s.sufMask[v>>6] |= bit
	if int32(v) >= s.data {
		if (s.zeroCheck[v>>6]|s.oneCheck[v>>6])&bit != 0 {
			s.goodDec(int32(v))
		}
		s.zeroCheck[v>>6] &^= bit
		s.oneCheck[v>>6] &^= bit
	}
	for _, p := range s.csr.Parents(int32(v)) {
		old := s.m[p]
		s.m[p] = old + 1
		if s.sufMask[p>>6]&(1<<(uint(p)&63)) != 0 {
			continue
		}
		if old == 0 {
			s.zeroCheck[p>>6] &^= 1 << (uint(p) & 63)
			s.oneCheck[p>>6] |= 1 << (uint(p) & 63)
		} else if old == 1 {
			s.oneCheck[p>>6] &^= 1 << (uint(p) & 63)
			s.goodDec(p)
		}
	}
}

// restoreSuffix removes v from the shared suffix.
func (s *scanner) restoreSuffix(v int) {
	bit := uint64(1) << (uint(v) & 63)
	s.sufMask[v>>6] &^= bit
	for _, p := range s.csr.Parents(int32(v)) {
		old := s.m[p]
		s.m[p] = old - 1
		if s.sufMask[p>>6]&(1<<(uint(p)&63)) != 0 {
			continue
		}
		if old == 1 {
			s.oneCheck[p>>6] &^= 1 << (uint(p) & 63)
			s.zeroCheck[p>>6] |= 1 << (uint(p) & 63)
		} else if old == 2 {
			s.oneCheck[p>>6] |= 1 << (uint(p) & 63)
			s.goodInc(p)
		}
	}
	if int32(v) >= s.data {
		switch s.m[v] {
		case 0:
			s.zeroCheck[v>>6] |= bit
			s.goodInc(int32(v))
		case 1:
			s.oneCheck[v>>6] |= bit
			s.goodInc(int32(v))
		}
	}
}

// stepSuffix carries the certificate structure over a run boundary. The
// suffix is the pattern minus its smallest element. The hard step swapped
// out for in within the pattern, and the smallest element moved from last
// to c0; so last and in enter the suffix and out and c0 leave it, except
// that a node named on both sides (out == last: the old smallest was the
// one swapped out; c0 == last or c0 == in) never was, or never becomes, a
// member. At most two nodes change.
func (s *scanner) stepSuffix(last, out, in, c0 int) {
	if out != last {
		s.restoreSuffix(out)
	}
	if c0 != last && c0 != in {
		s.restoreSuffix(c0)
	}
	if last != out && last != c0 {
		s.eraseSuffix(last)
	}
	if in != c0 {
		s.eraseSuffix(in)
	}
}

// runCertificate decides whether the suffix holds a full certificate
// and, if so, fills s.badNodes with the sweeping elements that break
// it. Returns false when some suffix data node has no provable
// recovery path at all — the run then takes the fixpoint path lane by
// lane.
//
// Soundness. Consider a pattern T = S ∪ {c} (c the lane's sweeping
// element, always < min(S), so c ∉ S). For a suffix data node v, any
// parent q in oneCheck is a valid rule-1 rescuer (m[q] == 1 with v ∈
// S ∩ L(q) forces the one missing neighbor to be v), and stays valid in
// lane c iff c ∉ L(q) ∪ {q}. So v's round-1 rescue fails in lane c only
// when c breaks every oneCheck parent of v — the per-member mask bv[i]
// is that intersection ∩_q (L(q) ∪ {q}). Distinct v's never compete for
// one q (two suffix members under q would make m[q] ≥ 2), so in any
// lane c outside every member's mask, ALL suffix data nodes with
// oneCheck parents are rescued by disjoint checks in the first peeling
// round, independent of order.
//
// A member v with no oneCheck parent (deficient) can still be proven
// via a second round: a parent p with m[p] == 2, p ∉ S, whose other
// missing member u is itself recovered in round 1 — either u is data
// with its own round-1 rescuer (use its mask bv[j]), or u is an erased
// check with no suffix left-neighbors, recomputed by rule 2 when the
// lane leaves L(u) intact. Once u is back, p's missing set is {v} alone
// and p fires in round 2. Such a path survives lane c iff c ∉ L(p) ∪
// {p} and c doesn't break u's recovery, so the per-path mask is
// L(p) ∪ {p} ∪ (bv[j] or L(u)), intersected over candidate paths into
// bv[i]. Round-2 rescuers are distinct from all round-1 rescuers
// (m == 2 vs m ≤ 1) and from each other (p determines its member pair).
//
// badNodes is the union of all member masks. That settles the suffix;
// for c itself (erased checks need no recovery):
//
//   - a zeroCheck parent p of c has missing set exactly {c} and fires
//     in round 1;
//   - a oneCheck parent p of c has missing set {v_p, c} in round 1,
//     where v_p is its single suffix member. c ∈ L(p) disqualifies p
//     as v_p's rescuer, so the rescuer of v_p that lane c preserves
//     (which exists: c ∉ badNodes) is some q ≠ p; after round 1
//     recovers v_p, p's only missing neighbor is c and p fires next.
//
// Hence goodRun (maintained incrementally: every check bit, plus data
// bits with a zeroCheck or oneCheck parent) marks sweeping elements
// whose whole pattern is provably recoverable: a lane is proven by
// goodRun[c] ∧ ¬badNodes[c], and every other lane goes to the fixpoint,
// which assumes nothing. Real peeling runs rules 1 and 2 to a fixpoint,
// so it is at least as strong as these schedules.
func (s *scanner) runCertificate(idx []int) bool {
	words := s.csr.Words
	suffix := idx[1:]
	anyDeficient := false
	for i, v := range suffix {
		if int32(v) >= s.data {
			s.deficient[i] = false
			continue
		}
		inter := s.bv[i*words : (i+1)*words]
		first, empty := true, false
		for _, q := range s.csr.Parents(int32(v)) {
			if s.oneCheck[q>>6]&(1<<(uint(q)&63)) == 0 {
				continue
			}
			lm := s.leftMaskOf(q)
			qw, qb := int(q>>6), uint64(1)<<(uint(q)&63)
			if first {
				copy(inter, lm)
				inter[qw] |= qb
				first = false
				continue
			}
			nz := uint64(0)
			for w := range inter {
				x := lm[w]
				if w == qw {
					x |= qb
				}
				inter[w] &= x
				nz |= inter[w]
			}
			if nz == 0 {
				empty = true
				break
			}
		}
		s.deficient[i] = first
		anyDeficient = anyDeficient || first
		if empty {
			for w := range inter {
				inter[w] = 0
			}
		}
	}
	if anyDeficient && !s.certifyDeficient(suffix) {
		return false
	}
	bw := s.badNodes
	for w := range bw {
		bw[w] = 0
	}
	for i, v := range suffix {
		if int32(v) >= s.data {
			continue
		}
		src := s.bv[i*words : (i+1)*words]
		for w := range bw {
			bw[w] |= src[w]
		}
	}
	return true
}

// certifyDeficient is runCertificate's second pass: for every suffix
// data member without a round-1 rescuer, intersect the masks of its
// two-round recovery paths into bv. Returns false if some deficient
// member has no path at all.
func (s *scanner) certifyDeficient(suffix []int) bool {
	words := s.csr.Words
	for i, v := range suffix {
		if !s.deficient[i] {
			continue
		}
		inter := s.bv[i*words : (i+1)*words]
		first := true
		for _, p := range s.csr.Parents(int32(v)) {
			if s.m[p] != 2 || s.sufMask[p>>6]&(1<<(uint(p)&63)) != 0 {
				continue
			}
			// The other missing member u of p (exactly one: m == 2).
			lmp := s.leftMaskOf(p)
			u := int32(-1)
			for w := 0; w < words; w++ {
				x := lmp[w] & s.sufMask[w]
				if w == v>>6 {
					x &^= 1 << (uint(v) & 63)
				}
				if x != 0 {
					u = int32(w<<6 + bits.TrailingZeros64(x))
					break
				}
			}
			if u < 0 {
				continue
			}
			var uMask []uint64 // lanes that break u's round-1 recovery
			if u < s.data {
				j := -1
				for jj, sv := range suffix {
					if int32(sv) == u {
						j = jj
						break
					}
				}
				if j < 0 || s.deficient[j] {
					continue
				}
				uMask = s.bv[j*words : (j+1)*words]
			} else {
				// u is an erased check: rule 2 recomputes it in round 1
				// iff no suffix member sits among its left neighbors and
				// the lane stays out of L(u).
				uMask = s.leftMaskOf(u)
				mu := uint64(0)
				for w := 0; w < words; w++ {
					mu |= uMask[w] & s.sufMask[w]
				}
				if mu != 0 {
					continue
				}
			}
			pw, pb := int(p>>6), uint64(1)<<(uint(p)&63)
			if first {
				for w := range inter {
					inter[w] = lmp[w] | uMask[w]
				}
				inter[pw] |= pb
				first = false
				continue
			}
			for w := range inter {
				x := lmp[w] | uMask[w]
				if w == pw {
					x |= pb
				}
				inter[w] &= x
			}
		}
		if first {
			return false // no two-round path either
		}
	}
	return true
}

// extractWindow gathers the window bits mask[c0], mask[c0+dir], …, into
// lanes 0, 1, …. Bits beyond the caller's lane count are garbage; mask
// with the active-lane set. The window never leaves the node space: an
// ascending sweep stays below idx[1], a descending one ends at 0.
func extractWindow(mask []uint64, c0, dir int) uint64 {
	if dir > 0 {
		w, off := c0>>6, uint(c0&63)
		x := mask[w] >> off
		if off != 0 && w+1 < len(mask) {
			x |= mask[w+1] << (64 - off)
		}
		return x
	}
	// Descending: gather the ascending 64-bit window ending at c0, then
	// reverse so lane L reads bit c0−L.
	lo := c0 - 63
	var g uint64
	if lo >= 0 {
		w, off := lo>>6, uint(lo&63)
		g = mask[w] >> off
		if off != 0 && w+1 < len(mask) {
			g |= mask[w+1] << (64 - off)
		}
	} else {
		g = mask[0] << uint(-lo)
	}
	return bits.Reverse64(g)
}

// enqueue adds the lane pattern suffix ∪ {c0} to the fixpoint batch.
// The caller flushes first when the batch is full.
func (s *scanner) enqueue(idx []int, c0 int) {
	k := len(idx)
	p := s.batchPat[s.batchLen*k : (s.batchLen+1)*k]
	p[0] = c0
	copy(p[1:], idx[1:])
	bit := uint64(1) << uint(s.batchLen)
	for _, v := range p {
		s.sk.Erase(v, bit)
	}
	s.batchLen++
}

// flushBatch evaluates the pending batch in one word-wide fixpoint,
// records its failures, and returns the failed-slot mask.
func (s *scanner) flushBatch(res *RangeResult, maxFailures int) uint64 {
	failed := evalStaged(s.sk, s.batchLen)
	res.Tested += int64(s.batchLen)
	s.batchLen = 0
	res.FailureCount += int64(bits.OnesCount64(failed))
	for f := failed; f != 0; f &= f - 1 {
		slot, k := bits.TrailingZeros64(f), len(s.idx)
		res.Failures = recordFailure(res.Failures, s.batchPat[slot*k:(slot+1)*k], maxFailures)
	}
	return failed
}

// evalStaged decodes the patterns staged in lanes 0..n-1 of sk in one
// word-wide fixpoint, empties the kernel, and returns the lanes that lost
// data.
func evalStaged(sk *decode.SlicedKernel, n int) uint64 {
	active := ^uint64(0) >> uint(decode.Lanes-n) // n = 0 shifts everything out
	sk.SetActive(active)
	failed := active &^ sk.Eval()
	sk.Reset()
	return failed
}

// scanRun evaluates one maximal revolving-door run: runLen consecutive
// ranks starting at rank, whose patterns share the suffix idx[1:] while
// the smallest element sweeps from idx[0] in direction dir.
func (s *scanner) scanRun(res *RangeResult, idx []int, rank, runLen int64, dir, maxFailures int) {
	certOK := s.runCertificate(idx)
	c0 := idx[0]
	laneRank := rank
	for remaining := runLen; remaining > 0; {
		n := decode.Lanes
		if int64(n) > remaining {
			n = int(remaining)
		}
		active := ^uint64(0)
		if n < decode.Lanes {
			active = 1<<uint(n) - 1
		}
		var proven uint64
		if certOK {
			proven = active & extractWindow(s.goodRun, c0, dir) &^ extractWindow(s.badNodes, c0, dir)
		}
		unresolved := active &^ proven
		res.Tested += int64(bits.OnesCount64(proven))
		if s.onVerdict != nil {
			s.hookWord(res, idx, laneRank, c0, dir, n, proven, unresolved, maxFailures)
		} else {
			for u := unresolved; u != 0; u &= u - 1 {
				if s.batchLen == decode.Lanes {
					s.flushBatch(res, maxFailures)
				}
				s.enqueue(idx, c0+dir*bits.TrailingZeros64(u))
			}
		}
		c0 += dir * n
		laneRank += int64(n)
		remaining -= int64(n)
	}
}

// hookWord is the onVerdict (test) path of scanRun's word loop: it keeps
// the batch word-local so every verdict — proven and fixpoint alike —
// can be reported in rank order.
func (s *scanner) hookWord(res *RangeResult, idx []int, laneRank int64, c0, dir, n int, proven, unresolved uint64, maxFailures int) {
	s.flushBatch(res, maxFailures) // any carry-over enqueued before the hook was set
	for u := unresolved; u != 0; u &= u - 1 {
		s.enqueue(idx, c0+dir*bits.TrailingZeros64(u))
	}
	failed := s.flushBatch(res, maxFailures)
	slot, first := 0, idx[0] // idx[0] shows each lane's element in turn, then goes back
	for L := 0; L < n; L++ {
		ok := true
		if unresolved&(1<<uint(L)) != 0 {
			ok = failed&(1<<uint(slot)) == 0
			slot++
		}
		idx[0] = c0 + dir*L
		s.onVerdict(laneRank+int64(L), idx, ok)
	}
	idx[0] = first
}

// scanRange is the body of ScanRangeCtx (see there for the contract).
// Progress counters are flushed in evaluated patterns, not words, every
// cancelCheckInterval patterns.
func (s *scanner) scanRange(ctx context.Context, k int, lo, hi int64, maxFailures int) (RangeResult, error) {
	n := int(s.csr.Total)
	total, err := rankSpace(n, k)
	if err != nil {
		return RangeResult{}, err
	}
	if lo < 0 || hi > total || lo > hi {
		return RangeResult{}, fmt.Errorf("sim: rank range [%d,%d) outside [0,%d)", lo, hi, total)
	}
	if lo == hi {
		return RangeResult{}, nil
	}
	reg := Metrics()
	tested := reg.Counter(MetricCombinationsTested)
	found := reg.Counter(MetricFailuresFound)

	s.aim(k, lo)
	idx := s.idx

	var res RangeResult
	var lastFlushTested, lastFlushFails int64
	budget := int64(0) // patterns until the next flush/cancel check
	for r := lo; r < hi; {
		if budget <= 0 {
			s.flushBatch(&res, maxFailures)
			if ctx.Err() != nil {
				return RangeResult{}, ctx.Err()
			}
			tested.Add(res.Tested - lastFlushTested)
			found.Add(res.FailureCount - lastFlushFails)
			lastFlushTested, lastFlushFails = res.Tested, res.FailureCount
			budget = cancelCheckInterval
		}
		// Maximal run from the current state: Algorithm R's easy step
		// moves only idx[0] — up toward idx[1] (or n) when k is odd, down
		// toward 0 when k is even.
		var runLen int64
		dir := 1
		if k%2 == 1 {
			c2 := n
			if k > 1 {
				c2 = idx[1]
			}
			runLen = int64(c2 - idx[0])
		} else {
			runLen = int64(idx[0] + 1)
			dir = -1
		}
		if runLen > hi-r {
			runLen = hi - r
		}
		s.scanRun(&res, idx, r, runLen, dir, maxFailures)
		r += runLen
		budget -= runLen
		if r < hi {
			// Step over the run boundary: position idx[0] at the run's
			// last pattern (where the easy step is exhausted) and let
			// GrayNext take the hard step, then apply the suffix delta.
			idx[0] += dir * int(runLen-1)
			last := idx[0]
			out, in, ok := combin.GrayNext(idx, n)
			if !ok {
				return RangeResult{}, fmt.Errorf("sim: revolving-door enumeration exhausted at rank %d of [%d,%d)", r, lo, hi)
			}
			s.stepSuffix(last, out, in, idx[0])
		}
	}
	s.flushBatch(&res, maxFailures)
	tested.Add(res.Tested - lastFlushTested)
	found.Add(res.FailureCount - lastFlushFails)
	return res, nil
}
