package combin

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {96, 1, 96},
		{96, 2, 4560}, {96, 3, 142880}, {96, 4, 3321960},
		{96, 5, 61124064}, {10, 11, 0}, {10, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); math.Abs(got-c.want) > 1e-6*math.Max(1, c.want) {
			t.Errorf("Binomial(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialBigMatchesFloat(t *testing.T) {
	for n := 0; n <= 60; n++ {
		for k := 0; k <= n; k++ {
			bf, _ := new(big.Float).SetInt(BinomialBig(n, k)).Float64()
			if rel := math.Abs(bf-Binomial(n, k)) / math.Max(1, bf); rel > 1e-9 {
				t.Fatalf("Binomial(%d,%d) float %v vs big %v", n, k, Binomial(n, k), bf)
			}
		}
	}
}

func TestBinomialInt64(t *testing.T) {
	v, ok := BinomialInt64(96, 5)
	if !ok || v != 61124064 {
		t.Errorf("BinomialInt64(96,5) = %d,%v", v, ok)
	}
	if _, ok := BinomialInt64(200, 100); ok {
		t.Error("BinomialInt64(200,100) should overflow int64")
	}
}

func TestLogBinomial(t *testing.T) {
	if got, want := LogBinomial(96, 5), math.Log(61124064); math.Abs(got-want) > 1e-9 {
		t.Errorf("LogBinomial(96,5) = %v, want %v", got, want)
	}
	if !math.IsInf(LogBinomial(5, 6), -1) {
		t.Error("LogBinomial out of range should be -Inf")
	}
	// C(96,48) ≈ e^63.5; check against big-int computation.
	f, _ := new(big.Float).SetInt(BinomialBig(96, 48)).Float64()
	if math.Abs(LogBinomial(96, 48)-math.Log(f)) > 1e-6 {
		t.Errorf("LogBinomial(96,48) = %v, want %v", LogBinomial(96, 48), math.Log(f))
	}
}

func TestFirstNext(t *testing.T) {
	idx := make([]int, 3)
	First(idx, 5)
	var all [][3]int
	for {
		all = append(all, [3]int{idx[0], idx[1], idx[2]})
		if !Next(idx, 5) {
			break
		}
	}
	if len(all) != 10 {
		t.Fatalf("enumerated %d combinations of C(5,3), want 10", len(all))
	}
	if all[0] != [3]int{0, 1, 2} || all[9] != [3]int{2, 3, 4} {
		t.Errorf("endpoints wrong: %v … %v", all[0], all[9])
	}
	// Strictly increasing lexicographic order.
	for i := 1; i < len(all); i++ {
		if !lexLess(all[i-1][:], all[i][:]) {
			t.Errorf("combination %v not < %v", all[i-1], all[i])
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestRankUnrankRoundTrip(t *testing.T) {
	n, k := 12, 4
	total, _ := BinomialInt64(n, k)
	idx := make([]int, k)
	for r := int64(0); r < total; r++ {
		Unrank(idx, n, r)
		if got := Rank(idx, n); got != r {
			t.Fatalf("Rank(Unrank(%d)) = %d", r, got)
		}
	}
}

func TestEnumerationMatchesUnrank(t *testing.T) {
	n, k := 10, 3
	idx := make([]int, k)
	First(idx, n)
	u := make([]int, k)
	r := int64(0)
	for {
		Unrank(u, n, r)
		for i := range idx {
			if idx[i] != u[i] {
				t.Fatalf("rank %d: Next gives %v, Unrank gives %v", r, idx, u)
			}
		}
		r++
		if !Next(idx, n) {
			break
		}
	}
	if total, _ := BinomialInt64(n, k); r != total {
		t.Fatalf("enumerated %d, want %d", r, total)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	count := 0
	done := ForEach(6, 2, func(idx []int) bool {
		count++
		return count < 5
	})
	if done || count != 5 {
		t.Errorf("ForEach early stop: done=%v count=%d", done, count)
	}
	count = 0
	done = ForEach(6, 2, func(idx []int) bool { count++; return true })
	if !done || count != 15 {
		t.Errorf("ForEach full: done=%v count=%d, want 15", done, count)
	}
}

func TestForEachZeroK(t *testing.T) {
	count := 0
	ForEach(5, 0, func(idx []int) bool {
		if len(idx) != 0 {
			t.Errorf("k=0 got idx %v", idx)
		}
		count++
		return true
	})
	if count != 1 {
		t.Errorf("k=0 enumerated %d, want 1", count)
	}
}

func TestRandomSubsetValidity(t *testing.T) {
	rng := rand.NewPCG(1, 2)
	idx := make([]int, 5)
	scratch := make([]uint64, 2)
	for trial := 0; trial < 200; trial++ {
		RandomSubset(idx, 96, rng, scratch)
		for i := 0; i < len(idx); i++ {
			if idx[i] < 0 || idx[i] >= 96 {
				t.Fatalf("element %d out of range", idx[i])
			}
			if i > 0 && idx[i] <= idx[i-1] {
				t.Fatalf("subset not strictly increasing: %v", idx)
			}
		}
	}
}

func TestRandomSubsetUniformity(t *testing.T) {
	// Each element of {0..9} should appear in a size-3 subset with
	// probability 3/10. Chi-square-ish sanity check over many draws.
	rng := rand.NewPCG(7, 7)
	counts := make([]int, 10)
	idx := make([]int, 3)
	const trials = 30000
	for i := 0; i < trials; i++ {
		RandomSubset(idx, 10, rng, nil)
		for _, v := range idx {
			counts[v]++
		}
	}
	want := float64(trials) * 0.3
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("element %d appeared %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestRandomSubsetFull(t *testing.T) {
	rng := rand.NewPCG(3, 4)
	idx := make([]int, 7)
	RandomSubset(idx, 7, rng, nil)
	for i, v := range idx {
		if v != i {
			t.Fatalf("k=n subset = %v, want identity", idx)
		}
	}
}

// randomSubsetMap is RandomSubset as it stood before the bitset scratch: a
// map for membership and an insertion sort. Kept as the draw-identity
// oracle — pinned Monte Carlo tallies depend on the new sampler consuming
// the rng exactly as this one did.
func randomSubsetMap(idx []int, n int, rng *rand.Rand) {
	seen := make(map[int]bool, len(idx))
	i := 0
	for j := n - len(idx); j < n; j++ {
		t := rng.IntN(j + 1)
		if seen[t] {
			t = j
		}
		seen[t] = true
		idx[i] = t
		i++
	}
	insertionSort(idx)
}

// TestRandomSubsetDrawIdentity: over 10⁴ random (n, k, seed) — k = 1 and
// k = n included, n on both sides of every word boundary and of the
// read-back/sort switch — the bitset sampler returns the subset the map
// version returns, leaves the rng in the same state (two draws in a row
// agree), and hands the scratch back zeroed.
func TestRandomSubsetDrawIdentity(t *testing.T) {
	pick := rand.New(rand.NewPCG(2006, 0xF107D))
	scratch := make([]uint64, 64)
	for trial := 0; trial < 10000; trial++ {
		n := 1 + pick.IntN(300)
		if trial%10 == 0 {
			n = 1 + pick.IntN(4096)
		}
		var k int
		switch trial % 4 {
		case 0:
			k = 1
		case 1:
			k = n
		case 2:
			k = 1 + pick.IntN(min(n, 8))
		default:
			k = 1 + pick.IntN(n)
		}
		seed := pick.Uint64()
		want, got := make([]int, k), make([]int, k)
		rngWant := rand.New(rand.NewPCG(seed, uint64(k)))
		rngGot := rand.NewPCG(seed, uint64(k))
		for draw := 0; draw < 2; draw++ {
			randomSubsetMap(want, n, rngWant)
			RandomSubset(got, n, rngGot, scratch)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d seed=%d draw %d: bitset %v, map %v", n, k, seed, draw, got, want)
			}
			for w, x := range scratch {
				if x != 0 {
					t.Fatalf("n=%d k=%d: scratch word %d = %#x after the draw, want 0", n, k, w, x)
				}
			}
		}
	}
}

// TestRandomSubsetPinned pins the draws themselves, captured before the
// collision select became branch-free: 4096 draws per (n, k) from a fresh
// rng, the first three verbatim and all of them through an FNV-1a
// fingerprint. (96, 40) and (96, 3) read the bitset back; (96, 2), (640, 6)
// and (30000, 5) sort the draws, and (640, 6) collides often enough to pin
// the select on that branch too. RandomSet from a twin rng must draw the
// same set, and RandomSubset must hand its scratch back zeroed.
func TestRandomSubsetPinned(t *testing.T) {
	pins := []struct {
		n, k  int
		first [3][]int
		fnv   uint64
	}{
		{96, 40, [3][]int{
			{3, 5, 10, 14, 15, 16, 20, 23, 24, 30, 31, 34, 35, 37, 38, 42, 45, 46, 49, 52, 53, 56, 59, 61, 64, 65, 67, 69, 70, 73, 76, 77, 80, 83, 85, 86, 88, 89, 90, 94},
			{4, 5, 8, 9, 11, 13, 15, 16, 18, 21, 22, 23, 25, 26, 27, 29, 32, 34, 37, 41, 46, 47, 48, 50, 51, 58, 59, 63, 65, 71, 72, 77, 78, 83, 84, 85, 86, 89, 92, 94},
			{0, 5, 6, 7, 10, 12, 14, 16, 17, 19, 20, 23, 27, 36, 37, 39, 42, 44, 46, 51, 52, 53, 56, 58, 63, 64, 65, 67, 70, 72, 73, 74, 77, 78, 82, 86, 88, 90, 91, 92},
		}, 0x5a47ce1e626cc26f},
		{96, 3, [3][]int{{34, 43, 53}, {9, 20, 65}, {13, 35, 59}}, 0xa0c6a7911cb312},
		{96, 2, [3][]int{{6, 27}, {63, 75}, {26, 86}}, 0x50fc031135bd1d42},
		{640, 6, [3][]int{{20, 31, 87, 197, 401, 616}, {16, 36, 288, 425, 493, 584}, {156, 157, 246, 260, 302, 534}}, 0xc6ff08121802748e},
		{30000, 5, [3][]int{
			{9618, 11901, 16830, 17644, 23928},
			{10993, 11607, 14255, 15620, 23937},
			{1612, 3818, 9760, 16260, 26250},
		}, 0xd9341ab88ca452f5},
	}
	for _, p := range pins {
		words := (p.n + 63) / 64
		seed := uint64(p.n)<<32 | uint64(p.k)
		rng, twin := rand.NewPCG(2006, seed), rand.NewPCG(2006, seed)
		seen, set := make([]uint64, words), make([]uint64, words)
		idx := make([]int, p.k)
		h := fnv.New64a()
		for d := 0; d < 4096; d++ {
			RandomSubset(idx, p.n, rng, seen)
			if d < len(p.first) && !slices.Equal(idx, p.first[d]) {
				t.Fatalf("n=%d k=%d draw %d: %v, pinned %v", p.n, p.k, d, idx, p.first[d])
			}
			for _, v := range idx {
				h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
			}
			if slices.ContainsFunc(seen, func(x uint64) bool { return x != 0 }) {
				t.Fatalf("n=%d k=%d draw %d: scratch not zeroed", p.n, p.k, d)
			}
			RandomSet(set, p.n, p.k, twin)
			for _, v := range idx {
				set[v>>6] ^= 1 << (uint(v) & 63)
			}
			if slices.ContainsFunc(set, func(x uint64) bool { return x != 0 }) {
				t.Fatalf("n=%d k=%d draw %d: RandomSet drew a different set than %v", p.n, p.k, d, idx)
			}
		}
		if got := h.Sum64(); got != p.fnv {
			t.Errorf("n=%d k=%d: fingerprint of 4096 draws %#x, pinned %#x", p.n, p.k, got, p.fnv)
		}
	}
}

// TestSubsetDrawMatchesRand: over 10⁴ successive draws on twin PCGs,
// RandomSubset's draw on the PCG itself equals randomSubsetMap's through
// rand.New(twin).IntN, RandomSubsetUnsorted's is the same set from a third
// twin, and all three streams end at the same point. (n, k) covers both
// of RandomSubsetUnsorted's branches: Floyd's draws at (30000, 5), the
// bitset read back at (96, 5) and (30000, 48).
func TestSubsetDrawMatchesRand(t *testing.T) {
	for _, n := range []int{5, 96, 1000, 30000} {
		for _, k := range []int{1, 2, 5, 20, 48} {
			if k > n {
				continue
			}
			seed := uint64(n)<<32 | uint64(k)
			src, unsorted, twin := rand.NewPCG(2006, seed), rand.NewPCG(2006, seed), rand.NewPCG(2006, seed)
			ref := rand.New(twin)
			seen := make([]uint64, (n+63)/64)
			got, set, want := make([]int, k), make([]int, k), make([]int, k)
			for d := 0; d < 10000; d++ {
				RandomSubset(got, n, src, seen)
				RandomSubsetUnsorted(set, n, unsorted, seen)
				randomSubsetMap(want, n, ref)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d draw %d: PCG draw %v, rand.Rand draw %v", n, k, d, got, want)
				}
				if slices.Sort(set); !slices.Equal(set, want) {
					t.Fatalf("n=%d k=%d draw %d: unsorted draw holds %v, want %v", n, k, d, set, want)
				}
			}
			if a, b, c := src.Uint64(), unsorted.Uint64(), twin.Uint64(); a != c || b != c {
				t.Fatalf("n=%d k=%d: streams end apart: next values %#x, %#x, rand.Rand's %#x", n, k, a, b, c)
			}
		}
	}
}

func TestSplitRanges(t *testing.T) {
	rs := SplitRanges(10, 3)
	if len(rs) != 3 {
		t.Fatalf("got %d ranges", len(rs))
	}
	var covered int64
	prev := int64(0)
	for _, r := range rs {
		if r[0] != prev {
			t.Errorf("range gap: %v", rs)
		}
		covered += r[1] - r[0]
		prev = r[1]
	}
	if covered != 10 {
		t.Errorf("covered %d, want 10", covered)
	}
	if rs := SplitRanges(2, 5); len(rs) != 2 {
		t.Errorf("SplitRanges(2,5) = %v", rs)
	}
	if rs := SplitRanges(0, 3); len(rs) != 0 {
		t.Errorf("SplitRanges(0,3) = %v", rs)
	}
}

// Property: Rank is a bijection onto [0, C(n,k)) for random combinations.
func TestQuickRankBijective(t *testing.T) {
	rng := rand.NewPCG(11, 13)
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		n := 5 + r.IntN(20)
		k := 1 + r.IntN(n)
		idx := make([]int, k)
		RandomSubset(idx, n, rng, nil)
		rank := Rank(idx, n)
		total, _ := BinomialInt64(n, k)
		if rank < 0 || rank >= total {
			return false
		}
		back := make([]int, k)
		Unrank(back, n, rank)
		for i := range idx {
			if back[i] != idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitRangesDegenerate(t *testing.T) {
	cases := []struct {
		total int64
		parts int
		want  int // range count
	}{
		{total: 0, parts: 1, want: 0},
		{total: 0, parts: 0, want: 0},
		{total: -5, parts: 3, want: 0},
		{total: 7, parts: 0, want: 1},
		{total: 7, parts: -2, want: 1},
		{total: 1, parts: 1, want: 1},
		{total: 1, parts: 100, want: 1},
		{total: 3, parts: 7, want: 3},
	}
	for _, c := range cases {
		rs := SplitRanges(c.total, c.parts)
		if len(rs) != c.want {
			t.Errorf("SplitRanges(%d,%d) = %v, want %d ranges", c.total, c.parts, rs, c.want)
		}
	}
	// parts > total degrades to single-element ranges.
	for i, r := range SplitRanges(3, 7) {
		if r[0] != int64(i) || r[1] != int64(i)+1 {
			t.Errorf("SplitRanges(3,7)[%d] = %v, want [%d,%d)", i, r, i, i+1)
		}
	}
}

// Property: for any (total, parts), the ranges exactly tile [0, total) —
// contiguous, ascending, non-empty, no overlap — and sizes differ by at
// most one. Exercised with total = C(n,k) to mirror the exhaustive-search
// and campaign-sharding call sites.
func TestQuickSplitRangesTile(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		n := 1 + r.IntN(40)
		k := r.IntN(n + 1)
		total, ok := BinomialInt64(n, k)
		if !ok {
			return true
		}
		parts := 1 + r.IntN(64)
		if total < 64 && r.IntN(8) == 0 {
			parts = int(total) + 1 + r.IntN(3) // force parts > total
		}
		rs := SplitRanges(total, parts)
		if len(rs) > parts {
			return false
		}
		var prev, minSize, maxSize int64
		minSize = total + 1
		for _, rg := range rs {
			if rg[0] != prev || rg[1] <= rg[0] {
				return false // gap, overlap, or empty range
			}
			size := rg[1] - rg[0]
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			prev = rg[1]
		}
		if prev != total {
			return false // does not cover the full rank space
		}
		if len(rs) > 1 && maxSize-minSize > 1 {
			return false // near-equal split violated
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// --- Revolving-door (Gray code) enumeration ---

// grayEnumerate walks the whole revolving-door order for (n, k) via
// GrayUnrank(0) + GrayNext, returning every visited combination.
func grayEnumerate(t *testing.T, n, k int) [][]int {
	t.Helper()
	total, ok := BinomialInt64(n, k)
	if !ok {
		t.Fatalf("C(%d,%d) overflows", n, k)
	}
	idx := make([]int, k)
	GrayUnrank(idx, n, 0)
	var out [][]int
	for {
		cp := make([]int, k)
		copy(cp, idx)
		out = append(out, cp)
		if _, _, ok := GrayNext(idx, n); !ok {
			break
		}
	}
	if int64(len(out)) != total {
		t.Fatalf("gray order for (%d,%d) visited %d combinations, want %d", n, k, len(out), total)
	}
	return out
}

// TestGrayOrderVisitsAllOnce: the revolving-door order is a permutation of
// the lexicographic order — every combination exactly once.
func TestGrayOrderVisitsAllOnce(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 1; k <= n; k++ {
			seen := map[string]bool{}
			for _, c := range grayEnumerate(t, n, k) {
				key := fmt.Sprint(c)
				if seen[key] {
					t.Fatalf("(%d,%d): combination %v visited twice", n, k, c)
				}
				seen[key] = true
				for i := 1; i < k; i++ {
					if c[i-1] >= c[i] {
						t.Fatalf("(%d,%d): combination %v not strictly increasing", n, k, c)
					}
				}
			}
		}
	}
}

// TestGrayOrderSingleSwap: consecutive combinations differ by exactly one
// element, and GrayNext reports precisely that (out, in) pair.
func TestGrayOrderSingleSwap(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 1; k <= n; k++ {
			idx := make([]int, k)
			GrayUnrank(idx, n, 0)
			prev := map[int]bool{}
			for _, v := range idx {
				prev[v] = true
			}
			for {
				before := make(map[int]bool, k)
				for v := range prev {
					before[v] = true
				}
				out, in, ok := GrayNext(idx, n)
				if !ok {
					break
				}
				if !before[out] || before[in] || out == in {
					t.Fatalf("(%d,%d): swap (%d→%d) inconsistent with previous set %v", n, k, out, in, before)
				}
				delete(before, out)
				before[in] = true
				cur := map[int]bool{}
				for _, v := range idx {
					cur[v] = true
				}
				if len(cur) != k {
					t.Fatalf("(%d,%d): duplicate element after swap: %v", n, k, idx)
				}
				for v := range cur {
					if !before[v] {
						t.Fatalf("(%d,%d): successor %v does not match reported swap (%d→%d)", n, k, idx, out, in)
					}
				}
				prev = cur
			}
		}
	}
}

// TestGrayRankUnrankRoundTrip: GrayRank inverts GrayUnrank across the whole
// rank space, and ranks follow the enumeration order.
func TestGrayRankUnrankRoundTrip(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 1; k <= n; k++ {
			for r, c := range grayEnumerate(t, n, k) {
				if got := GrayRank(c, n); got != int64(r) {
					t.Fatalf("(%d,%d): GrayRank(%v) = %d, want %d", n, k, c, got, r)
				}
				idx := make([]int, k)
				GrayUnrank(idx, n, int64(r))
				if fmt.Sprint(idx) != fmt.Sprint(c) {
					t.Fatalf("(%d,%d): GrayUnrank(%d) = %v, want %v", n, k, r, idx, c)
				}
			}
		}
	}
}

// TestGrayUnrankMidStart: starting an enumeration from an arbitrary rank
// (the campaign-shard access pattern) continues the same global order.
func TestGrayUnrankMidStart(t *testing.T) {
	const n, k = 12, 4
	all := grayEnumerate(t, n, k)
	for _, start := range []int64{1, 7, 100, 300, int64(len(all) - 1)} {
		idx := make([]int, k)
		GrayUnrank(idx, n, start)
		for r := start; r < int64(len(all)); r++ {
			if fmt.Sprint(idx) != fmt.Sprint(all[r]) {
				t.Fatalf("rank %d (from %d): got %v, want %v", r, start, idx, all[r])
			}
			GrayNext(idx, n)
		}
	}
}

func TestGrayUnrankRejectsBadRank(t *testing.T) {
	for _, r := range []int64{-1, 6} { // C(4,2) = 6
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GrayUnrank accepted rank %d", r)
				}
			}()
			GrayUnrank(make([]int, 2), 4, r)
		}()
	}
}
