package decode

import (
	"math/rand/v2"
	"sort"
	"testing"

	"tornado/internal/combin"
)

// FuzzKernelMatchesReference is the differential battery's randomized arm:
// a seeded random cascade graph plus a seeded stream of erasure sets,
// evaluated four ways — ReferenceRecoverable (the oracle), the stateful
// Decoder, the kernel's one-shot path, and the kernel's incremental path
// (mutating one long-lived kernel by per-set deltas, the revolving-door
// scan access pattern) — and the Decoder's schedules, full and pruned to a
// random want set, held to the reference fixpoint (checkSchedule). Any
// disagreement is a finding. Erasure-set sizes range from empty to the
// whole graph, and a revolving-door burst checks Swap against the one-shot
// verdicts.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(2006), uint64(0))
	f.Add(uint64(0xDEAD), uint64(0xBEEF))
	f.Fuzz(func(t *testing.T, seed, stream uint64) {
		rng := rand.New(rand.NewPCG(seed, stream))
		g := randomCascade(rng)
		csr := NewCSR(g)
		oneShot := NewKernel(csr)
		incr := NewKernel(csr)
		d := New(g)

		cur := []int{} // incr's current erasure set
		for trial := 0; trial < 12; trial++ {
			k := rng.IntN(g.Total + 1)
			next := rng.Perm(g.Total)[:k]

			want := ReferenceRecoverable(g, next)
			if got := oneShot.Recoverable(next); got != want {
				t.Fatalf("one-shot kernel = %v, reference = %v (graph %v, erased %v)", got, want, g, next)
			}
			if got := d.Recoverable(next); got != want {
				t.Fatalf("decoder = %v, reference = %v (graph %v, erased %v)", got, want, g, next)
			}
			checkSchedule(t, g, d, next, randomWant(rng, g.Total))

			// Delta-update incr from cur to next: restore what left the
			// set, erase what entered it.
			inNext := make(map[int]bool, k)
			for _, v := range next {
				inNext[v] = true
			}
			inCur := make(map[int]bool, len(cur))
			for _, v := range cur {
				inCur[v] = true
				if !inNext[v] {
					incr.RestoreOne(v)
				}
			}
			for _, v := range next {
				if !inCur[v] {
					incr.EraseOne(v)
				}
			}
			cur = next
			if got := incr.Eval(); got != want {
				t.Fatalf("incremental kernel = %v, reference = %v (graph %v, erased %v)", got, want, g, next)
			}
		}

		// A revolving-door burst from a random rank: every swap-adjacent
		// pattern must agree with the one-shot verdict.
		k := 1 + rng.IntN(min(5, g.Total))
		total, ok := combin.BinomialInt64(g.Total, k)
		if !ok {
			return
		}
		idx := make([]int, k)
		start := rng.Int64N(total)
		combin.GrayUnrank(idx, g.Total, start)
		burst := NewKernel(csr)
		for _, v := range idx {
			burst.EraseOne(v)
		}
		for step := 0; step < 40; step++ {
			if got, want := burst.Eval(), oneShot.Recoverable(idx); got != want {
				t.Fatalf("gray-scan kernel = %v, one-shot = %v (graph %v, erased %v)", got, want, g, idx)
			}
			out, in, ok := combin.GrayNext(idx, g.Total)
			if !ok {
				break
			}
			burst.Swap(out, in)
		}
	})
}

// FuzzSlicedMatchesReference is the bit-sliced kernel's randomized arm:
// a seeded random cascade plus random words of up to 64 erasure patterns
// (random per-lane sizes, random active masks, one kernel reused across
// words, each evaluated twice), every active lane compared against both
// the scalar kernel and ReferenceRecoverable. This is the fuzz face of the
// differential battery required by the sliced scan path (see also
// TestSliced* in internal/sim).
func FuzzSlicedMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(2006), uint64(0))
	f.Add(uint64(0x5EED), uint64(64))
	f.Fuzz(func(t *testing.T, seed, stream uint64) {
		rng := rand.New(rand.NewPCG(seed, stream))
		g := randomCascade(rng)
		csr := NewCSR(g)
		sk := NewSlicedKernel(csr)
		kn := NewKernel(csr)

		for word := 0; word < 8; word++ {
			lanes := 1 + rng.IntN(Lanes)
			active := uint64(0)
			patterns := make([][]int, lanes)
			sk.Reset()
			for L := 0; L < lanes; L++ {
				n := rng.IntN(g.Total + 1)
				patterns[L] = rng.Perm(g.Total)[:n]
				for _, v := range patterns[L] {
					sk.Erase(v, 1<<uint(L))
				}
				// Leave ~1/8 of the lanes inactive — their erased bits
				// stay set, so the verdict masking is fuzzed too.
				if rng.IntN(8) != 0 {
					active |= 1 << uint(L)
				}
			}
			sk.SetActive(active)
			got := sk.Eval()
			if again := sk.Eval(); again != got {
				t.Fatalf("re-evaluated word: verdict %#x, first %#x (graph %v)", again, got, g)
			}
			if got&^active != 0 {
				t.Fatalf("verdict %#x outside active mask %#x", got, active)
			}
			for L := 0; L < lanes; L++ {
				if active&(1<<uint(L)) == 0 {
					continue
				}
				want := ReferenceRecoverable(g, patterns[L])
				if kn.Recoverable(patterns[L]) != want {
					t.Fatalf("scalar kernel disagrees with reference on %v", patterns[L])
				}
				if lane := got&(1<<uint(L)) != 0; lane != want {
					t.Fatalf("sliced lane %d = %v, reference = %v (graph %v, erased %v)",
						L, lane, want, g, patterns[L])
				}
			}
		}
	})
}

// FuzzThresholdMatchesPeel holds the arrival-order threshold — one peel as
// an order's nodes arrive — to two oracles on a seeded random cascade: the
// binary search for the shortest decodable prefix over Recoverable, and
// ReferenceRecoverable at every cardinality k, which must recover the order
// with its last k nodes erased exactly when the threshold is at most
// Total−k. That second equivalence is what lets one order answer every
// point of the failure profile. A random window [from, limit] must clamp
// the threshold to [from, limit+1] from either starting state, and the
// decoder must be back at baseline after every call. The sliced arm reads
// words of 1–64 random orders with SlicedKernel.Thresholds over a random
// window: every lane must equal Decoder.Threshold, and the kernel must be
// back in its post-Reset state (no lane active, nothing erased) afterwards.
func FuzzThresholdMatchesPeel(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(2006), uint64(0))
	f.Add(uint64(0xA221), uint64(7))
	f.Fuzz(func(t *testing.T, seed, stream uint64) {
		rng := rand.New(rand.NewPCG(seed, stream))
		g := randomCascade(rng)
		d, oracle := New(g), New(g)
		for trial := 0; trial < 8; trial++ {
			order := rng.Perm(g.Total)
			got := d.Threshold(order, 0, g.Total)
			want := sort.Search(g.Total+1, func(n int) bool { return oracle.Recoverable(order[n:]) })
			if got != want {
				t.Fatalf("threshold %d, binary search %d (graph %v, order %v)", got, want, g, order)
			}
			for k := 0; k <= g.Total; k++ {
				if ok := ReferenceRecoverable(g, order[g.Total-k:]); ok != (got <= g.Total-k) {
					t.Fatalf("k=%d: reference %v, threshold %d of %d (graph %v, order %v)", k, ok, got, g.Total, g, order)
				}
			}
			from := rng.IntN(g.Total + 1)
			limit := from + rng.IntN(g.Total+1-from)
			if clamped := d.Threshold(order, from, limit); clamped != min(max(got, from), limit+1) {
				t.Fatalf("window [%d,%d]: %d, threshold %d (graph %v, order %v)", from, limit, clamped, got, g, order)
			}
			if erased := order[:rng.IntN(g.Total+1)]; d.Recoverable(erased) != ReferenceRecoverable(g, erased) {
				t.Fatalf("after Threshold the decoder misjudges %v: it is not back at baseline", erased)
			}
		}
		sk := NewSlicedKernel(NewCSR(g))
		out := make([]int, Lanes)
		for word := 0; word < 4; word++ {
			orders := make([][]int, 1+rng.IntN(Lanes))
			for L := range orders {
				orders[L] = rng.Perm(g.Total)
			}
			from := rng.IntN(g.Total + 1)
			limit := from + rng.IntN(g.Total+1-from)
			sk.Thresholds(orders, from, limit, out)
			for L, order := range orders {
				if want := d.Threshold(order, from, limit); out[L] != want {
					t.Fatalf("window [%d,%d] lane %d of %d: sliced %d, decoder %d (graph %v, order %v)",
						from, limit, L, len(orders), out[L], want, g, order)
				}
			}
			if got := sk.Eval(); got != 0 {
				t.Fatalf("after Thresholds Eval reports lanes %#x: a lane is still active", got)
			}
			if sk.SetActive(^uint64(0)); sk.Eval() != ^uint64(0) {
				t.Fatalf("after Thresholds a lane is still erased (graph %v)", g)
			}
			sk.Reset()
		}
	})
}
