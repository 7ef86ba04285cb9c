package sim

import (
	"context"
	"fmt"
	"math/bits"

	"tornado/internal/combin"
	"tornado/internal/decode"
)

// This file is the exhaustive rank scan: decode.SlicedKernel over a
// revolving-door rank range, 64 consecutive ranks per machine word, so every
// downstream guarantee (campaign sharding, cached shards, lex-smallest
// witness merging, worker-count independence) rests on one loop. It is the
// fallback of the cardinalities whose stopping sets cost more than their
// patterns (exhaustiveK) and the stopping-set path's oracle in the tests;
// the one-pattern-per-step scalar loop it replaced survives as its own
// oracle in scalar_test.go.

// scanRange is the body of ScanRangeCtx (see there for the contract): each
// word takes the next 64 ranks (GrayUnrank once, then GrayNext), erases
// lane L's k nodes into bit L and runs one Eval. Progress counters are
// flushed, and ctx checked, every cancelCheckInterval patterns.
func scanRange(ctx context.Context, csr *decode.CSR, k int, lo, hi int64, maxFailures int) (RangeResult, error) {
	n := int(csr.Total)
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

	sk := decode.NewSlicedKernel(csr)
	pats := make([]int, decode.Lanes*k) // lane L's pattern at [L*k, (L+1)*k)
	idx := make([]int, k)
	combin.GrayUnrank(idx, n, lo)
	var res RangeResult
	var flushedTested, flushedFails int64
	for r := lo; r < hi; {
		if (r-lo)%cancelCheckInterval == 0 {
			if ctx.Err() != nil {
				return RangeResult{}, ctx.Err()
			}
			tested.Add(res.Tested - flushedTested)
			found.Add(res.FailureCount - flushedFails)
			flushedTested, flushedFails = res.Tested, res.FailureCount
		}
		lanes := int(min(hi-r, decode.Lanes))
		for L := 0; L < lanes; L++ {
			copy(pats[L*k:], idx)
			for _, v := range idx {
				sk.Erase(v, 1<<uint(L))
			}
			if r+int64(L+1) < hi {
				combin.GrayNext(idx, n)
			}
		}
		failed := evalStaged(sk, lanes)
		res.Tested += int64(lanes)
		res.FailureCount += int64(bits.OnesCount64(failed))
		for f := failed; f != 0; f &= f - 1 {
			L := bits.TrailingZeros64(f)
			res.Failures = recordFailure(res.Failures, pats[L*k:(L+1)*k], maxFailures)
		}
		r += int64(lanes)
	}
	tested.Add(res.Tested - flushedTested)
	found.Add(res.FailureCount - flushedFails)
	return res, nil
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
