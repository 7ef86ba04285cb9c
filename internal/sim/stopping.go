package sim

import (
	"cmp"
	"context"
	"errors"
	"math/bits"
	"slices"

	"tornado/internal/combin"
	"tornado/internal/decode"
)

// This file computes an exhaustive unit: every erasure pattern of one
// cardinality, without visiting the C(n,k) patterns. A pattern loses data
// iff it contains a stopping set holding a data node
// (decode.StoppingEnumerator has the argument), so the failing k-sets are
// exactly the k-supersets of the minimal failing sets of at most k nodes,
// and the enumerator lists a superset of those. Where listing the sets or
// closing them up would cost more than C(n,k), the cardinality is handed to
// the rank scan (sliced.go) instead, which is also this path's
// differential oracle in the tests.

// errOverBudget stops the stopping-set search of a cardinality whose sets
// cost more to list than scanning its patterns would.
var errOverBudget = errors.New("sim: stopping-set search over budget")

// exhaustiveK computes cardinality k's KResult: the stopping sets of at
// most k nodes, one root data node per block over the runner's workers,
// each root allowed C(n,k)/Data search steps, merged in root order; then
// their closure up to k (closeUp). When a root or the closure is over
// budget, the rank scan runs instead, [0, C(n,k)) split over the workers,
// and MetricScanFallbacks moves by one. Past k = Total − Data every pattern
// fails (allFail) and nothing runs. Every goroutine gets its own enumerator
// or sliced kernel, so the unit is safe beside any other. Cancellation is
// checked once per root, every cancelCheckInterval closure steps, and at
// the scan's chunk boundaries.
func (l *LocalRunner) exhaustiveK(ctx context.Context, k, maxFailures int) (KResult, error) {
	n := l.g.Total
	space, err := exhaustiveSpace(n, k)
	if err != nil {
		return KResult{}, err
	}
	if k > n-l.g.Data {
		return allFail(n, k, maxFailures, space), nil
	}
	enums := make([]*decode.StoppingEnumerator, l.Workers())
	roots := make([][][]int, l.g.Data)
	budget := max(space/int64(len(roots)), 1)
	err = forBlocksCtx(ctx, len(enums), int64(len(roots)), func(_ context.Context, w int, b int64) error {
		if enums[w] == nil {
			enums[w] = decode.NewStoppingEnumerator(l.g, nil)
		}
		var complete bool
		if roots[b], complete = enums[w].Root(nil, int(b), int(b), k, budget); !complete {
			return errOverBudget
		}
		return nil
	})
	if err == nil {
		kr, ok, err := closeUp(ctx, slices.Concat(roots...), n, k, maxFailures, space)
		if err != nil || ok {
			return kr, err
		}
	} else if err != errOverBudget {
		return KResult{}, err
	}
	Metrics().Counter(MetricScanFallbacks).Add(1)
	ranges := combin.SplitRanges(space, l.Workers())
	res := make([]RangeResult, len(ranges))
	err = forBlocksCtx(ctx, len(ranges), int64(len(ranges)), func(ctx context.Context, _ int, i int64) (err error) {
		res[i], err = scanRange(ctx, l.csr, k, ranges[i][0], ranges[i][1], maxFailures)
		return err
	})
	if err != nil {
		return KResult{}, err
	}
	return mergeRanges(k, res, maxFailures), nil
}

// allFail is the KResult of a cardinality k > n − Data, where fewer than
// Data nodes survive every pattern: each node holds a linear function of
// the Data data blocks, so no decoder can determine them, and all
// space = C(n,k) patterns fail. The recorded failures are the first
// maxFailures k-sets in lexicographic order, the counters move as the scan
// would move them, and no pattern is visited.
func allFail(n, k, maxFailures int, space int64) KResult {
	kr := KResult{K: k, Tested: space, FailureCount: space}
	if maxFailures > 0 {
		idx := make([]int, k)
		combin.First(idx, n)
		for ok := true; ok && len(kr.Failures) < maxFailures; ok = combin.Next(idx, n) {
			kr.Failures = append(kr.Failures, slices.Clone(idx))
		}
	}
	reg := Metrics()
	reg.Counter(MetricCombinationsTested).Add(space)
	reg.Counter(MetricFailuresFound).Add(space)
	return kr
}

// closeUp counts the failing k-sets of an n-node graph from sets, which
// must contain every minimal failing set of at most k nodes and nothing
// that does not fail. Each failing k-set is counted once, credited to the
// first set (by size, then lexicographically) it contains: set i's
// supersets are enumerated over its complement, and one that contains an
// earlier set is skipped by a bitmask test. Only the earlier sets that some
// k-superset of set i can contain — at most k−|S_i| of their nodes outside
// S_i — are tested, and a set containing an earlier one credits nothing.
// Every counted set goes through recordFailure, so Failures is the same
// lexicographically smallest prefix the scan records. There is no
// per-pattern state.
//
// Work is counted in subset tests and visited supersets; when it would
// pass C(n,k) (space) — many small sets, as on unscreened graphs or
// mirrors at middle k — closeUp gives up before enumerating anything and
// reports ok false, and the caller scans instead.
func closeUp(ctx context.Context, sets [][]int, n, k, maxFailures int, space int64) (kr KResult, ok bool, err error) {
	slices.SortFunc(sets, func(a, b []int) int { return cmp.Or(len(a)-len(b), slices.Compare(a, b)) })
	words := (n + 63) / 64
	masks := make([]uint64, len(sets)*words)
	maskOf := func(i int) []uint64 { return masks[i*words : (i+1)*words] }
	for i, s := range sets {
		m := maskOf(i)
		for _, v := range s {
			m[v>>6] |= 1 << (uint(v) & 63)
		}
	}

	// Plan, within budget: whether each set credits anything (not when it
	// contains an earlier set), its candidates, and its superset walk's cost.
	cands := make([][]int32, len(sets))
	credits := make([]bool, len(sets))
	var work int64
	for i, s := range sets {
		r := k - len(s)
		if work += int64(i); work > space {
			return KResult{}, false, nil
		}
		mi := maskOf(i)
		credits[i] = true
		for j := 0; j < i && credits[i]; j++ {
			outside := 0
			for w, x := range maskOf(j) {
				outside += bits.OnesCount64(x &^ mi[w])
			}
			switch {
			case outside == 0:
				credits[i] = false
			case outside <= r:
				cands[i] = append(cands[i], int32(j))
			}
		}
		if !credits[i] {
			continue
		}
		sup, _ := combin.BinomialInt64(n-len(s), r) // ≤ space, which fits
		per := int64(1 + len(cands[i]))
		if sup > (space-work)/per {
			return KResult{}, false, nil
		}
		work += sup * per
	}

	kr = KResult{K: k, Tested: space}
	f := make([]uint64, words)
	comp := make([]int, 0, n) // nodes outside the current set
	pos := make([]int, k)     // the superset's extra nodes, as indices into comp
	failing := make([]int, k)
	var steps int64
	for i, s := range sets {
		if !credits[i] {
			continue
		}
		comp = comp[:0]
		for v, si := 0, 0; v < n; v++ {
			if si < len(s) && s[si] == v {
				si++
				continue
			}
			comp = append(comp, v)
		}
		x := pos[:k-len(s)]
		combin.First(x, len(comp))
		for {
			if steps%cancelCheckInterval == 0 && ctx.Err() != nil {
				return KResult{}, false, ctx.Err()
			}
			steps++
			copy(f, maskOf(i))
			for _, p := range x {
				f[comp[p]>>6] |= 1 << (uint(comp[p]) & 63)
			}
			if !containsAny(f, masks, words, cands[i]) {
				kr.FailureCount++
				if maxFailures > 0 {
					mergeSorted(failing, s, comp, x)
					kr.Failures = recordFailure(kr.Failures, failing, maxFailures)
				}
			}
			if !combin.Next(x, len(comp)) {
				break
			}
		}
	}
	reg := Metrics()
	reg.Counter(MetricCombinationsTested).Add(kr.Tested)
	reg.Counter(MetricFailuresFound).Add(kr.FailureCount)
	return kr, true, nil
}

// containsAny reports whether node mask f contains any of the sets cands
// names in masks (stride words).
func containsAny(f, masks []uint64, words int, cands []int32) bool {
	for _, j := range cands {
		m := masks[int(j)*words : (int(j)+1)*words]
		inside := true
		for w, x := range m {
			if x&^f[w] != 0 {
				inside = false
				break
			}
		}
		if inside {
			return true
		}
	}
	return false
}

// mergeSorted writes the ascending union of s and comp[x] (disjoint, both
// ascending) into dst, which has room for exactly both.
func mergeSorted(dst, s, comp, x []int) {
	a, b := 0, 0
	for o := range dst {
		if b == len(x) || a < len(s) && s[a] < comp[x[b]] {
			dst[o] = s[a]
			a++
		} else {
			dst[o] = comp[x[b]]
			b++
		}
	}
}
