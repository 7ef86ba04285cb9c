package defect

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"tornado/internal/combin"
	"tornado/internal/graph"
)

// minShardSize keeps parallel shards from dropping below a useful grain:
// small scans (the generation screen's C(48,2) pass) run inline instead of
// paying goroutine fan-out for microseconds of kernel work.
const minShardSize = 4096

// scanWorkers resolves a worker-count option against the scan size. An
// explicit request is honored as-is (SplitRanges clamps to one rank per
// range); the GOMAXPROCS default is additionally capped so small scans run
// inline instead of paying fan-out for microseconds of kernel work.
func scanWorkers(workers int, total int64) int {
	if workers > 0 {
		return workers
	}
	workers = runtime.GOMAXPROCS(0)
	if maxParts := int(total/minShardSize) + 1; workers > maxParts {
		workers = maxParts
	}
	return workers
}

// ScanDataLevelCtx enumerates subsets of the data nodes of size
// 2..maxSize and returns every minimal closed set (subsets containing an
// already-reported set are skipped). maxSize is clamped to the data node
// count. Findings are bit-identical, order included, to the lexicographic
// test oracle (ReferenceScan, reference_test.go). See ScanLevelCtx for the
// sharding (workers 0 = GOMAXPROCS) and cancellation contract.
func ScanDataLevelCtx(ctx context.Context, g *graph.Graph, maxSize, workers int) ([]Finding, error) {
	return scanTableCtx(ctx, NewDataTable(g), maxSize, workers)
}

// ScanLevelCtx scans level li's left range for minimal closed sets up to
// maxSize members, sharding the combination rank space of each subset size
// across workers goroutines (0 = GOMAXPROCS). Workers observe ctx at
// subset-chunk boundaries, and progress counters are flushed to Metrics()
// at the same cadence. The findings are independent of the worker count:
// per-shard results merge in rank order and sort lexicographically before
// the minimality filter runs.
//
// For li > 0 the left nodes are themselves check nodes; a closed set there
// cannot be recovered through its parent checks (peeling rule 1), though
// its members remain recomputable bottom-up (rule 2) while their own left
// neighbors survive. Upper-level findings therefore mark cascade weak
// points that erode multi-loss tolerance rather than standalone data loss;
// generation's repair screen stays on the data level.
func ScanLevelCtx(ctx context.Context, g *graph.Graph, li, maxSize, workers int) ([]Finding, error) {
	if li < 0 || li >= len(g.Levels) {
		return nil, fmt.Errorf("defect: level %d out of range (graph has %d levels)", li, len(g.Levels))
	}
	return scanTableCtx(ctx, NewLevelTable(g, li), maxSize, workers)
}

// ScanGraphCtx scans every distinct left range of the cascade — the data
// level plus each check level that feeds a higher one — and returns the
// concatenated findings in level order, each tagged with its Level. Levels
// sharing a left range (the final Typhoon stages) are scanned once.
func ScanGraphCtx(ctx context.Context, g *graph.Graph, maxSize, workers int) ([]Finding, error) {
	var all []Finding
	for li, lv := range g.Levels {
		seen := false
		for j := 0; j < li; j++ {
			if g.Levels[j].LeftFirst == lv.LeftFirst && g.Levels[j].LeftCount == lv.LeftCount {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		fs, err := ScanLevelCtx(ctx, g, li, maxSize, workers)
		if err != nil {
			return all, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// scanTableCtx runs the sized scans over one table, ascending, filtering
// each size's closed sets down to the minimal ones (no reported subset)
// exactly as the test oracle (reference_test.go) does.
func scanTableCtx(ctx context.Context, t *Table, maxSize, workers int) ([]Finding, error) {
	if maxSize > t.LeftCount {
		maxSize = t.LeftCount
	}
	var findings []Finding
	var fin *Kernel // lazily built: findings are the exception, not the rule
	for size := 2; size <= maxSize; size++ {
		sets, err := closedSets(ctx, t, size, workers)
		if err != nil {
			return nil, err
		}
		for _, s := range sets {
			// s holds range-local indices; globalize in place (the slice is
			// a fresh clone owned by this scan).
			for i := range s {
				s[i] += t.LeftFirst
			}
			if containsFound(findings, s) {
				continue
			}
			if fin == nil {
				fin = NewKernel(t)
			}
			fin.Reset()
			for _, l := range s {
				fin.Add(l - t.LeftFirst)
			}
			findings = append(findings, Finding{
				Level:  t.Level,
				Lefts:  s,
				Rights: fin.sealingRights(nil),
			})
		}
	}
	return findings, nil
}

// containsFound reports whether S is a superset of an already-reported
// closed set (S is then non-minimal and suppressed).
func containsFound(findings []Finding, S []int) bool {
	for _, f := range findings {
		if subset(f.Lefts, S) {
			return true
		}
	}
	return false
}

// closedSets enumerates every size-member subset of t's left range (local
// indices) and returns the closed ones sorted lexicographically. The rank
// space [0, C(LeftCount, size)) is split across workers; each shard walks
// its range in revolving-door order driving a private kernel one swap per
// subset.
func closedSets(ctx context.Context, t *Table, size, workers int) ([][]int, error) {
	total, ok := combin.BinomialInt64(t.LeftCount, size)
	if !ok {
		return nil, fmt.Errorf("defect: C(%d,%d) exceeds the exhaustive rank space (%w); lower maxSize", t.LeftCount, size, combin.ErrRankOverflow)
	}
	if total == 0 {
		return nil, nil
	}
	ranges := combin.SplitRanges(total, scanWorkers(workers, total))

	results := make([][][]int, len(ranges))
	errs := make([]error, len(ranges))
	if len(ranges) == 1 {
		results[0], errs[0] = scanShard(ctx, t, size, ranges[0][0], ranges[0][1])
	} else {
		var wg sync.WaitGroup
		for i, rg := range ranges {
			wg.Add(1)
			go func(i int, lo, hi int64) {
				defer wg.Done()
				results[i], errs[i] = scanShard(ctx, t, size, lo, hi)
			}(i, rg[0], rg[1])
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var sets [][]int
	for _, r := range results {
		sets = append(sets, r...)
	}
	// Shards enumerate in revolving-door order; canonicalize so the
	// minimality filter (and the caller-visible finding order) matches the
	// lexicographic test oracle bit for bit, at any worker count.
	slices.SortFunc(sets, slices.Compare)
	return sets, nil
}

// scanShard evaluates the subsets whose revolving-door rank lies in
// [lo, hi), single-threaded and allocation-free except for recording the
// closed sets it finds. Cancellation and metric flushes happen at
// subset-chunk boundaries.
func scanShard(ctx context.Context, t *Table, size int, lo, hi int64) ([][]int, error) {
	reg := Metrics()
	tested := reg.Counter(MetricSubsetsTested)
	found := reg.Counter(MetricClosedSetsFound)

	kn := NewKernel(t)
	idx := make([]int, size)
	combin.GrayUnrank(idx, t.LeftCount, lo)
	for _, l := range idx {
		kn.Add(l)
	}

	var out [][]int
	var nTested, nFound, lastT, lastF int64
	untilCheck := int64(0) // countdown, not modulo: this loop runs per subset
	for r := lo; r < hi; r++ {
		if untilCheck == 0 {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			tested.Add(nTested - lastT)
			found.Add(nFound - lastF)
			lastT, lastF = nTested, nFound
			untilCheck = chunkInterval
		}
		untilCheck--
		nTested++
		if kn.Closed() {
			nFound++
			out = append(out, slices.Clone(idx))
		}
		if r+1 < hi {
			o, in, _ := combin.GrayNext(idx, t.LeftCount)
			kn.Swap(o, in)
		}
	}
	tested.Add(nTested - lastT)
	found.Add(nFound - lastF)
	return out, nil
}
