package sim

import (
	"context"
	"fmt"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
)

// scanRangeScalar is the differential oracle of the exhaustive scan: the
// one-pattern-per-step loop that was ScanRangeCtx's production body before
// the bit-sliced scan replaced it. It shares nothing with the scan but the
// enumeration order — the incremental decode.Kernel advanced by a two-node
// revolving-door delta per pattern — so agreement on counts and witness
// lists checks the lane layout, the word-wide fixpoint and the failure
// bookkeeping all at once.
func scanRangeScalar(ctx context.Context, g *graph.Graph, k int, lo, hi int64, maxFailures int) (RangeResult, error) {
	total, err := rankSpace(g.Total, k)
	if err != nil {
		return RangeResult{}, err
	}
	if lo < 0 || hi > total || lo > hi {
		return RangeResult{}, fmt.Errorf("sim: rank range [%d,%d) outside [0,%d)", lo, hi, total)
	}
	if lo == hi {
		return RangeResult{}, nil
	}
	kn := decode.NewKernel(decode.NewCSR(g))
	idx := make([]int, k)
	combin.GrayUnrank(idx, g.Total, lo)
	for _, v := range idx {
		kn.EraseOne(v)
	}
	var res RangeResult
	for r := lo; r < hi; r++ {
		if ctx.Err() != nil {
			return RangeResult{}, ctx.Err()
		}
		res.Tested++
		if !kn.Eval() {
			res.FailureCount++
			res.Failures = recordFailure(res.Failures, idx, maxFailures)
		}
		if r+1 < hi {
			out, in, _ := combin.GrayNext(idx, g.Total)
			kn.Swap(out, in)
		}
	}
	return res, nil
}

// exhaustiveKScalar is ExhaustiveKCtx on the oracle: the whole rank space
// of cardinality k in one scalar range.
func exhaustiveKScalar(g *graph.Graph, k, maxFailures int) (KResult, error) {
	total, err := rankSpace(g.Total, k)
	if err != nil {
		return KResult{}, err
	}
	rr, err := scanRangeScalar(context.Background(), g, k, 0, total, maxFailures)
	return KResult{K: k, Tested: rr.Tested, FailureCount: rr.FailureCount, Failures: rr.Failures}, err
}
