package decode

import "math/bits"

// Kernel is the flat-array incremental peeling kernel: the evaluator for
// one-node deltas near the healthy state (retrieval's planner is its
// production user). It trades the Decoder's generality (Decode reports,
// erase-anytime) for throughput on the one question its caller asks: "is
// this erasure set recoverable?".
//
// Design (see DESIGN.md "Decoder kernels"):
//
//   - The erased set S lives in a bitmask plus a small list. A check's
//     missing-neighbor count is popcount(leftMask & erasedMask) against the
//     CSR's per-check neighbor masks, so EraseOne/RestoreOne are O(1) bit
//     flips — which is what makes revolving-door scans cheap: consecutive
//     combinations differ by one swap, so per-pattern set-up is two bit
//     flips instead of k erasures plus a full reset.
//   - Eval is tiered. The certificate fast path accepts a pattern when
//     every erased data node has a present parent check whose only missing
//     neighbor is that node — each such node is recoverable by one
//     independent application of peeling rule 1, so no order can
//     invalidate the verdict. The certificate is maintained incrementally
//     across erase/restore deltas (see the rescuer field), so on the bulk
//     of scan patterns Eval is a single length check.
//   - Interacting patterns fall through to a mask peel: the full peeling
//     fixpoint computed over just the ≤ |S| erased nodes on a scratch
//     mask. Nothing is ever written to per-node state, so there is
//     nothing to reset afterwards.
//   - For large erasure sets (Monte Carlo points deep in the failure
//     region) the O(|S|²) mask peel loses to the classic linear peel, so
//     Eval switches to a transient array peel: erase into present/missing
//     arrays, peel with a work stack, and restore the baseline
//     Decoder-style (recovered nodes' counter updates cancel out, so only
//     still-missing nodes need undoing).
//
// Every tier allocates nothing in the steady state. A Kernel is not safe
// for concurrent use; create one per goroutine. Many kernels may share one
// read-only CSR.
type Kernel struct {
	c    *CSR
	data int32 // == c.Data; avoids a second deref on the erase/restore path

	// The CSR's mask tables (CSR.Masks), captured at construction so the
	// hot paths index them with no build check in between.
	leftMask []uint64
	parMask  []uint64

	erasedMask []uint64 // the current erased set S as a bitmask
	eset       []int32  // S as an unordered list
	epos       []int32  // epos[v] = v's index in eset while erased
	edata      int32    // |S ∩ data|

	// Incremental certificate. rescuer[v] is the present check proved to
	// have erased data node v as its only missing neighbor, rescued[p] the
	// inverse (-1 = none); entries form a bijection over the currently
	// valid certificate pairs (npairs of them), and ulist (indexed by
	// upos) holds exactly the erased data nodes with no pair. The pair
	// (v, p) stays valid as long as p's erasure status and missing count
	// are untouched, and both can only change when a node equal to p or
	// in L(p) is erased — restores never invalidate a valid pair: if
	// restoring d ∈ L(p) dropped p's missing count below one, d was a
	// second missing neighbor besides v, so the pair was already invalid.
	// EraseOne therefore retires exactly the pairs its erasure touches
	// (check v itself plus every p ∈ Parents(v)), RestoreOne retires the
	// leaving node's own pair, and between mutations the structure is
	// always exact — which is what lets Eval answer "certified" as
	// len(ulist) == 0 without a per-pattern scan of the erased set.
	rescuer     []int32
	rescued     []int32
	rescuerMask []uint64 // bitmask of checks currently serving as rescuers
	npairs      int32
	ulist       []int32
	upos        []int32

	// Mask-peel scratch.
	workMask []uint64
	alive    []int32

	// Array-peel scratch; at baseline (all present, zero counters)
	// whenever Eval is not running.
	present []bool
	missing []int32
	stack   []int32
}

// maskPeelMaxK bounds the erasure-set size evaluated by the O(|S|²) mask
// peel; larger sets use the linear array peel. The crossover is shallow —
// mask rounds almost always terminate after one pass at scan
// cardinalities (k ≤ 6), while deep Monte Carlo points (k ≈ 40) are
// dominated by genuine peeling work where the array is better.
const maskPeelMaxK = 12

// NewKernel returns a Kernel over c in the baseline state (everything
// present, empty erasure set). The first Kernel over a CSR builds its mask
// tables (see CSR.Masks).
func NewKernel(c *CSR) *Kernel {
	leftMask, parMask := c.Masks()
	k := &Kernel{
		c:           c,
		data:        c.Data,
		leftMask:    leftMask,
		parMask:     parMask,
		erasedMask:  make([]uint64, c.Words),
		eset:        make([]int32, 0, 16),
		epos:        make([]int32, c.Total),
		rescuer:     make([]int32, c.Total),
		rescued:     make([]int32, c.Total),
		rescuerMask: make([]uint64, c.Words),
		ulist:       make([]int32, 0, 16),
		upos:        make([]int32, c.Total),
		workMask:    make([]uint64, c.Words),
		alive:       make([]int32, 0, 16),
		present:     make([]bool, c.Total),
		missing:     make([]int32, c.Total),
		stack:       make([]int32, 0, 4*c.Total),
	}
	for i := range k.present {
		k.present[i] = true
	}
	for i := range k.rescuer {
		k.rescuer[i] = -1
		k.rescued[i] = -1
	}
	return k
}

// CSR returns the adjacency snapshot this kernel evaluates.
func (k *Kernel) CSR() *CSR { return k.c }

// Erased returns the size of the current erasure set.
func (k *Kernel) Erased() int { return len(k.eset) }

// MissingData returns the number of data nodes in the current erasure set.
// A set with MissingData() == 0 is trivially recoverable.
func (k *Kernel) MissingData() int { return int(k.edata) }

// EraseOne adds node v to the erasure set. v must not already be erased.
func (k *Kernel) EraseOne(v int) {
	k.erasedMask[v>>6] |= 1 << (uint(v) & 63)
	k.epos[v] = int32(len(k.eset))
	k.eset = append(k.eset, int32(v))
	if int32(v) < k.data {
		k.edata++
		// v enters uncertified; Eval's walk certifies it (or not).
		k.upos[v] = int32(len(k.ulist))
		k.ulist = append(k.ulist, int32(v))
	}
	if k.npairs > 0 {
		k.dropPairsTouching(int32(v))
	}
}

// dropPairsTouching retires the certificate pairs v's erasure can break:
// the pair of check v itself, and of every check p with v ∈ L(p) — exactly
// Parents(v). Intersecting the CSR's parent bitmask with the active
// rescuer mask finds the affected checks in a couple of ANDs — on most
// scan steps the intersection is empty and no parent is visited. Each
// orphaned node rejoins ulist for Eval to re-certify.
func (k *Kernel) dropPairsTouching(v int32) {
	if w := k.rescued[v]; w >= 0 {
		k.dropPair(w, v)
	}
	words := k.c.Words
	pm := k.parMask[int(v)*words : (int(v)+1)*words]
	for i, rm := range k.rescuerMask {
		for hits := pm[i] & rm; hits != 0; hits &= hits - 1 {
			p := int32(i<<6 + bits.TrailingZeros64(hits))
			k.dropPair(k.rescued[p], p)
		}
	}
}

// dropPair dissolves the certificate pair (w, p) and returns w to ulist.
func (k *Kernel) dropPair(w, p int32) {
	k.rescued[p] = -1
	k.rescuer[w] = -1
	k.rescuerMask[p>>6] &^= 1 << (uint(p) & 63)
	k.npairs--
	k.upos[w] = int32(len(k.ulist))
	k.ulist = append(k.ulist, w)
}

// RestoreOne removes node v from the erasure set. v must be erased.
func (k *Kernel) RestoreOne(v int) {
	k.erasedMask[v>>6] &^= 1 << (uint(v) & 63)
	i, last := k.epos[v], int32(len(k.eset)-1)
	moved := k.eset[last]
	k.eset[i] = moved
	k.epos[moved] = i
	k.eset = k.eset[:last]
	if int32(v) >= k.data {
		return
	}
	k.edata--
	// v's own certificate pair (or ulist membership) dies with its
	// membership; no other pair can be invalidated by a restore (see the
	// rescuer field comment).
	if p := k.rescuer[v]; p >= 0 {
		k.rescued[p] = -1
		k.rescuer[v] = -1
		k.rescuerMask[p>>6] &^= 1 << (uint(p) & 63)
		k.npairs--
		return
	}
	j, ulast := k.upos[v], int32(len(k.ulist)-1)
	umoved := k.ulist[ulast]
	k.ulist[j] = umoved
	k.upos[umoved] = j
	k.ulist = k.ulist[:ulast]
}

// Swap applies a revolving-door step: node out leaves the erasure set,
// node in enters it.
func (k *Kernel) Swap(out, in int) {
	k.RestoreOne(out)
	k.EraseOne(in)
}

// erased reports whether node v is in the erased-set mask m.
func erased(m []uint64, v int32) bool {
	return m[v>>6]&(1<<(uint(v)&63)) != 0
}

// missingOf counts right node r's missing left neighbors against mask m.
// The Eval certificate loop hand-inlines the two-word flavor of this count
// instead of calling here: one call per parent per pattern is measurable
// at scan rates, and the function exceeds the compiler's inlining budget.
func (k *Kernel) missingOf(m []uint64, r int32) int {
	lm := k.leftMask[int(r)*k.c.Words:]
	n := 0
	for i, w := range m {
		n += bits.OnesCount64(lm[i] & w)
	}
	return n
}

// Eval reports whether the current erasure set is recoverable — peeling
// reconstructs every data node. The erasure set is untouched, so it can be
// delta-adjusted for the next pattern.
//
// The fast path is a single comparison: the certificate structure is
// maintained exactly by EraseOne/RestoreOne/Swap, so an empty ulist means
// every erased data node holds a valid pair — each is recoverable by one
// independent application of peeling rule 1, and no order can invalidate
// the verdict. Eval is small enough to inline into scan loops; everything
// else lives in evalWalk.
func (k *Kernel) Eval() bool {
	if len(k.ulist) == 0 {
		return true // every erased data node is certified (or none is erased)
	}
	return k.evalWalk()
}

// evalWalk tries to certify each node in ulist by walking its parents for
// a present check with that node as its only missing neighbor (the
// two-word missing count — graphs up to 128 nodes, the paper's 96-node
// cascades — is hand-inlined; see missingOf). Certified nodes move into
// pairs; patterns with a node no single check rescues fall through to the
// peeling fixpoint tiers.
func (k *Kernel) evalWalk() bool {
	em := k.erasedMask
	lm := k.leftMask
	twoWords := len(em) == 2
	var em0, em1 uint64
	if twoWords {
		// Hoisted: nothing in the certification loop writes the erased
		// mask, but the compiler cannot prove lm and em do not alias.
		em0, em1 = em[0], em[1]
	}
	for i := 0; i < len(k.ulist); {
		v := k.ulist[i]
		found := int32(-1)
		for _, pp := range k.c.Parents(v) {
			if erased(em, pp) {
				continue
			}
			var n int
			if twoWords {
				base := int(pp) * 2
				n = bits.OnesCount64(lm[base]&em0) + bits.OnesCount64(lm[base+1]&em1)
			} else {
				n = k.missingOf(em, pp)
			}
			if n == 1 {
				found = pp
				break
			}
		}
		if found < 0 {
			i++ // stays uncertified; later certifications can't help (masks are untouched)
			continue
		}
		k.rescuer[v] = found
		k.rescued[found] = v
		k.rescuerMask[found>>6] |= 1 << (uint(found) & 63)
		k.npairs++
		ulast := int32(len(k.ulist) - 1)
		umoved := k.ulist[ulast]
		k.ulist[i] = umoved
		k.upos[umoved] = int32(i)
		k.ulist = k.ulist[:ulast]
	}
	if len(k.ulist) == 0 {
		return true
	}
	if len(k.eset) <= maskPeelMaxK {
		return k.maskEval()
	}
	return k.arrayEval()
}

// maskEval runs the peeling fixpoint on a scratch copy of the erased-set
// mask, removing nodes as they become recoverable: an erased node x leaves
// the mask when a present parent's only missing neighbor is x (rule 1), or
// — for a check — when all of its left neighbors are present (rule 2,
// recomputation). Work is O(rounds · |S| · degree) with |S| ≤
// maskPeelMaxK, touching no per-node state.
// The certificate structure is exact whenever maskEval runs, so every
// rescuer entry ≥ 0 marks a node whose recovery is unconditional (a
// present parent recovers it by rule 1 regardless of peeling order);
// peeling fixpoints are order-independent, so those nodes start removed —
// the loop then works only the handful of genuinely interacting nodes.
func (k *Kernel) maskEval() bool {
	copy(k.workMask, k.erasedMask)
	alive := k.alive[:0]
	dataLeft := k.edata
	for _, v := range k.eset {
		if v < k.data && k.rescuer[v] >= 0 {
			k.workMask[v>>6] &^= 1 << (uint(v) & 63)
			dataLeft--
			continue
		}
		alive = append(alive, v)
	}
	for changed := true; changed && dataLeft > 0; {
		changed = false
		for i := 0; i < len(alive); {
			x := alive[i]
			removable := x >= k.data && k.missingOf(k.workMask, x) == 0
			if !removable {
				for _, p := range k.c.Parents(x) {
					if !erased(k.workMask, p) && k.missingOf(k.workMask, p) == 1 {
						removable = true
						break
					}
				}
			}
			if removable {
				k.workMask[x>>6] &^= 1 << (uint(x) & 63)
				if x < k.data {
					dataLeft--
				}
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
				changed = true
			} else {
				i++
			}
		}
	}
	k.alive = alive[:0]
	return dataLeft == 0
}

// arrayEval is the linear-time path for large erasure sets: transiently
// erase into the present/missing arrays, peel to the verdict with a work
// stack, and restore the baseline. Restoration is Decoder-style: a node
// that peeling recovered has already cancelled its erasure's counter
// updates, so only still-missing nodes are undone — the restore cost
// tracks the failure's size, not the graph's.
func (k *Kernel) arrayEval() bool {
	stack := k.stack[:0]
	dataLeft := k.edata
	for _, v := range k.eset {
		k.present[v] = false
		for _, p := range k.c.Parents(v) {
			k.missing[p]++
			if k.missing[p] == 1 && k.present[p] {
				stack = append(stack, p)
			}
		}
		if v >= k.data && k.missing[v] == 0 {
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 && dataLeft > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if k.present[r] {
			if k.missing[r] != 1 {
				continue
			}
			for _, l := range k.c.LeftNeighbors(r) {
				if !k.present[l] {
					stack, dataLeft = k.makePresent(l, stack, dataLeft)
					break
				}
			}
		} else if k.missing[r] == 0 {
			stack, dataLeft = k.makePresent(r, stack, dataLeft)
		}
	}
	for _, v := range k.eset {
		if !k.present[v] {
			k.present[v] = true
			for _, p := range k.c.Parents(v) {
				k.missing[p]--
			}
		}
	}
	k.stack = stack[:0]
	return dataLeft == 0
}

// makePresent marks v recovered/recomputed during arrayEval and pushes the
// checks its recovery may have activated.
func (k *Kernel) makePresent(v int32, stack []int32, dataLeft int32) ([]int32, int32) {
	k.present[v] = true
	if v < k.data {
		dataLeft--
	}
	for _, p := range k.c.Parents(v) {
		k.missing[p]--
		if k.present[p] {
			if k.missing[p] == 1 {
				stack = append(stack, p)
			}
		} else if k.missing[p] == 0 {
			stack = append(stack, p)
		}
	}
	if v >= k.data && k.missing[v] == 1 {
		stack = append(stack, v)
	}
	return stack, dataLeft
}

// Recoverable evaluates one erasure set from a clean or delta state:
// erased's nodes are added to the current set, the combined set is
// evaluated, and the added nodes are removed again. Duplicates (and nodes
// already in the set) are ignored. This is the one-shot path used by Monte
// Carlo sampling, where consecutive patterns share no structure.
func (k *Kernel) Recoverable(erasedNodes []int) bool {
	n0 := len(k.eset)
	for _, v := range erasedNodes {
		if !erased(k.erasedMask, int32(v)) {
			k.EraseOne(v)
		}
	}
	ok := k.Eval()
	for len(k.eset) > n0 {
		k.RestoreOne(int(k.eset[len(k.eset)-1]))
	}
	return ok
}
