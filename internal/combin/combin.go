// Package combin supplies the combinatorial machinery behind the fault
// tolerance testing system: exact and floating-point binomial coefficients,
// lexicographic enumeration of k-combinations (used by the exhaustive
// worst-case search over (96 choose k) erasure patterns), combination
// ranking/unranking (used to stripe the exhaustive search across workers),
// and uniform random k-subset sampling (used by the Monte Carlo profiles).
package combin

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// ErrRankOverflow reports that a combination space is too large to rank
// with int64 arithmetic — C(n, k) > MaxInt64 — so the lexicographic and
// revolving-door rank plumbing (Rank/Unrank/GrayRank/GrayUnrank/
// SplitRanges) cannot address it. Callers hitting this at archival scale
// (e.g. C(100000, 5) ≈ 6.9e21) should switch from exhaustive enumeration
// to the sampled certification path, which never ranks the full space.
var ErrRankOverflow = errors.New("combin: combination space overflows int64 rank arithmetic")

// Binomial returns C(n, k) as a float64. It is exact for results that fit a
// float64 mantissa and a close approximation beyond; BinomialInt64 is exact
// where the result fits an int64. Binomial returns 0 for k < 0 or k > n.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r *= float64(n-i) / float64(i+1)
	}
	return r
}

// BinomialInt64 returns C(n, k) as an int64 and reports whether the value
// fits without overflow. It is overflow-exact: the multiplicative recurrence
// r·(n-k+i)/i is evaluated with a 128-bit intermediate product
// (bits.Mul64/bits.Div64), and because every intermediate C(n-k+i, i) is
// itself a binomial bounded by C(n, k), the first step whose quotient
// exceeds MaxInt64 proves the final coefficient does too — there is no
// silent wrap and no spurious rejection. Out-of-range inputs (k < 0 or
// k > n) report (0, true): the coefficient is exactly zero.
func BinomialInt64(n, k int) (int64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	r := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(r, uint64(n-k+i))
		if hi >= uint64(i) {
			// bits.Div64 panics when the quotient would not fit 64 bits;
			// hi >= divisor is exactly that condition, and a >= 2^64
			// intermediate certainly exceeds MaxInt64.
			return 0, false
		}
		q, rem := bits.Div64(hi, lo, uint64(i))
		if rem != 0 {
			// Cannot happen: r = C(n-k+i-1, i-1), so r·(n-k+i) is an exact
			// multiple of i. Guarded so a future edit fails loudly rather
			// than silently truncating.
			panic("combin: BinomialInt64 inexact division")
		}
		if q > math.MaxInt64 {
			return 0, false
		}
		r = q
	}
	return int64(r), true
}

// LogBinomial returns ln C(n, k), using the log-gamma function so very large
// coefficients (e.g. C(96,48)) stay representable.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// First fills idx with the lexicographically first k-combination of
// {0,…,n-1}, i.e. [0,1,…,k-1]. len(idx) determines k; it must satisfy
// 0 <= k <= n.
func First(idx []int, n int) {
	if len(idx) > n {
		panic(fmt.Sprintf("combin: k=%d exceeds n=%d", len(idx), n))
	}
	for i := range idx {
		idx[i] = i
	}
}

// Next advances idx to the next k-combination of {0,…,n-1} in lexicographic
// order, returning false when idx already holds the final combination
// [n-k,…,n-1]. idx must hold a valid combination (strictly increasing values
// in range).
func Next(idx []int, n int) bool {
	k := len(idx)
	for i := k - 1; i >= 0; i-- {
		if idx[i] < n-k+i {
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
			return true
		}
	}
	return false
}

// Unrank fills idx with the combination of {0,…,n-1} whose zero-based
// lexicographic rank is r. len(idx) determines k.
func Unrank(idx []int, n int, r int64) {
	k := len(idx)
	x := 0
	for i := 0; i < k; i++ {
		for {
			c, ok := BinomialInt64(n-x-1, k-i-1)
			if !ok {
				panic("combin: Unrank overflow; use big-int path")
			}
			if r < c {
				break
			}
			r -= c
			x++
		}
		idx[i] = x
		x++
	}
	if r != 0 {
		panic("combin: Unrank rank out of range")
	}
}

// RandomSet adds a uniformly random k-subset of {0,…,n-1} to the bitset
// seen (at least (n+63)/64 words, all-zero on entry) using Floyd's
// algorithm: one bounded draw per element, consuming src exactly as
// rand.New(src).IntN would, so a given src state always yields the same
// set. The caller reads the set off seen and zeroes it.
func RandomSet(seen []uint64, n, k int, src *rand.PCG) {
	if k > n {
		panic(fmt.Sprintf("combin: k=%d exceeds n=%d", k, n))
	}
	floyd(seen, n, k, src, nil)
}

// floyd is RandomSet's loop; with picks non-nil it also stores the i-th
// element drawn in picks[i].
func floyd(seen []uint64, n, k int, src *rand.PCG, picks []int) {
	for i, j := 0, n-k; j < n; i, j = i+1, j+1 {
		// Step j: draw t from [0, j] with math/rand/v2's uint64n written
		// out (a mask for a power of two, else Lemire's multiply with
		// rejection): the value rand.New(src).IntN(j+1) returns, from the
		// same stream, without the Source interface call per draw.
		m := uint64(j + 1)
		var u uint64
		if m&(m-1) == 0 {
			u = src.Uint64() & (m - 1)
		} else {
			hi, lo := bits.Mul64(src.Uint64(), m)
			if lo < m {
				thresh := -m % m
				for lo < thresh {
					hi, lo = bits.Mul64(src.Uint64(), m)
				}
			}
			u = hi
		}
		// Take j instead if t is already in. At k ≈ n/2 that test is a
		// coin flip, so the select is arithmetic rather than a branch.
		t := int(u)
		hit := int(seen[t>>6]>>(uint(t)&63)) & 1
		t ^= (t ^ j) & -hit
		seen[t>>6] |= 1 << (uint(t) & 63)
		if picks != nil {
			picks[i] = t
		}
	}
}

// RandomSubsetUnsorted fills idx with the uniformly random len(idx)-subset
// of {0,…,n-1} that RandomSet draws from the same src state: ascending
// where the bitset is read back, in draw order where Floyd's picks are
// kept, so a caller that only asks which nodes are in the set (the sampled
// certification's screen) never sorts. seen is RandomSet's scratch and
// must be all-zero on entry; it is all-zero again on return, so reusing it
// across calls avoids allocation. Pass nil to allocate internally.
func RandomSubsetUnsorted(idx []int, n int, src *rand.PCG, seen []uint64) {
	k := len(idx)
	if k > n {
		panic(fmt.Sprintf("combin: k=%d exceeds n=%d", k, n))
	}
	words := (n + 63) >> 6
	if seen == nil {
		seen = make([]uint64, words)
	}
	// Floyd's algorithm yields an unordered set. Reading the bitset back
	// costs a pass over its words, keeping the picks k stores (and a
	// sorted caller about k²/4 moves): take whichever is cheaper for this
	// (n, k).
	if 4*words <= k*k {
		RandomSet(seen, n, k, src)
		i := 0
		for w, x := range seen[:words] {
			for ; x != 0; x &= x - 1 {
				idx[i] = w<<6 + bits.TrailingZeros64(x)
				i++
			}
			seen[w] = 0
		}
		return
	}
	floyd(seen, n, k, src, idx)
	for _, v := range idx {
		seen[v>>6] = 0
	}
}

// --- Revolving-door (Gray code) enumeration ---
//
// The revolving-door order visits the k-combinations of {0,…,n-1} so that
// consecutive combinations differ by exactly one swapped element (one value
// leaves the set, one enters). It is the enumeration order of the
// incremental peeling kernel: an exhaustive scan applies a two-node
// erase/restore delta per pattern instead of erasing and resetting all k
// nodes. The order is defined recursively: Γ(n,k) lists the combinations
// without n-1 first (Γ(n-1,k)), then those with n-1 in reversed order
// (reverse(Γ(n-1,k-1)) each extended by n-1). GrayRank/GrayUnrank convert
// between a combination and its position in this order; GrayNext computes
// the successor in place (Knuth TAOCP 4A §7.2.1.3, Algorithm R).

// GrayNext advances idx (a strictly increasing k-combination of {0,…,n-1})
// to its successor in revolving-door order, returning the element swapped
// out and the element swapped in. It returns ok=false (idx unchanged) when
// idx is the final combination of the order.
func GrayNext(idx []int, n int) (out, in int, ok bool) {
	k := len(idx)
	if k == 0 {
		return 0, 0, false
	}
	// Easy changes on the smallest element (Algorithm R step R3).
	if k%2 == 1 {
		c2 := n
		if k > 1 {
			c2 = idx[1]
		}
		if idx[0]+1 < c2 {
			out = idx[0]
			idx[0]++
			return out, idx[0], true
		}
	} else if idx[0] > 0 {
		out = idx[0]
		idx[0]--
		return out, idx[0], true
	}
	// Alternate between trying to decrease c_j (R4) and increase c_j (R5),
	// j ascending. Odd k starts at R4, even k at R5.
	decrease := k%2 == 1
	for j := 2; j <= k; {
		if decrease {
			if idx[j-1] >= j {
				out = idx[j-1]
				idx[j-1] = idx[j-2]
				idx[j-2] = j - 2
				return out, j - 2, true
			}
		} else {
			next := n
			if j < k {
				next = idx[j]
			}
			if idx[j-1]+1 < next {
				out = idx[j-2]
				idx[j-2] = idx[j-1]
				idx[j-1]++
				return out, idx[j-1], true
			}
		}
		j++
		decrease = !decrease
	}
	return 0, 0, false
}

// GrayRank returns the zero-based revolving-door rank of the combination
// idx among all k-combinations of {0,…,n-1}.
func GrayRank(idx []int, n int) int64 {
	kk := len(idx)
	var rank int64
	sign := int64(1)
	for m := n; kk > 0; m-- {
		if idx[kk-1] == m-1 {
			// The combinations containing m-1 follow the C(m-1,kk) without
			// it, in reversed Γ(m-1,kk-1) order: position a+b-1-sub.
			a, okA := BinomialInt64(m-1, kk)
			b, okB := BinomialInt64(m-1, kk-1)
			if !okA || !okB {
				panic("combin: GrayRank overflow; use big-int path")
			}
			rank += sign * (a + b - 1)
			sign = -sign
			kk--
		}
	}
	return rank
}

// GrayUnrank fills idx with the combination of {0,…,n-1} whose zero-based
// revolving-door rank is r. len(idx) determines k.
func GrayUnrank(idx []int, n int, r int64) {
	kk := len(idx)
	if kk > n {
		panic(fmt.Sprintf("combin: k=%d exceeds n=%d", kk, n))
	}
	if total, ok := BinomialInt64(n, kk); !ok || r < 0 || r >= total {
		panic("combin: GrayUnrank rank out of range")
	}
	for m := n; kk > 0; m-- {
		a, okA := BinomialInt64(m-1, kk)
		if !okA {
			panic("combin: GrayUnrank overflow; use big-int path")
		}
		if r < a {
			continue // m-1 not in the combination
		}
		b, okB := BinomialInt64(m-1, kk-1)
		if !okB {
			panic("combin: GrayUnrank overflow; use big-int path")
		}
		idx[kk-1] = m - 1
		// Position within the reversed Γ(m-1,kk-1) block.
		r = b - 1 - (r - a)
		kk--
	}
	if r != 0 {
		panic("combin: GrayUnrank rank out of range")
	}
}

// SplitRanges divides the rank space [0, total) into at most parts
// contiguous half-open ranges of near-equal size for parallel exhaustive
// searches and campaign sharding. The returned ranges exactly tile
// [0, total) in ascending order with no overlap: sizes differ by at most
// one, larger ranges come first. Degenerate inputs are handled
// deterministically — parts < 1 is treated as 1, parts > total yields
// total single-element ranges, and total <= 0 yields nil (empty ranges are
// never emitted).
func SplitRanges(total int64, parts int) [][2]int64 {
	if total <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if int64(parts) > total {
		parts = int(total) // avoids iterating (and skipping) empty chunks
	}
	var out [][2]int64
	chunk := total / int64(parts)
	rem := total % int64(parts)
	var lo int64
	for i := 0; i < parts; i++ {
		size := chunk
		if int64(i) < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, [2]int64{lo, lo + size})
		lo += size
	}
	return out
}
