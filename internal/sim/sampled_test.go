package sim

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/stats"
)

func unscreened96(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := core.GenerateUnscreened(core.DefaultParams(), rand.New(rand.NewPCG(seed, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClassifyCertificateSound is the differential battery for the
// structural proofs: on unscreened 96-node graphs (which carry real
// defects), every pattern the classifier certifies must be recoverable
// per the scalar peeling kernel, and every kernel-batched pattern's
// sliced verdict must agree with the scalar kernel. This is the soundness
// property the whole screening rate rests on.
func TestClassifyCertificateSound(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := unscreened96(t, seed)
		c := decode.NewCSR(g)
		sp := NewStratifiedSampler(c)
		ref := decode.NewKernel(c)
		rng := rand.NewPCG(seed+100, 0)
		for k := 2; k <= 6; k++ {
			sp.idx = make([]int, k)
			certified, evaluated := 0, 0
			for trial := 0; trial < 4000; trial++ {
				combin.RandomSubset(sp.idx, g.Total, rng, sp.seen)
				strat, ok := sp.classify(k)
				if strat < 1 || strat > k {
					t.Fatalf("seed %d k=%d: stratum %d out of range", seed, k, strat)
				}
				want := ref.Recoverable(sp.idx)
				if ok {
					certified++
					if !want {
						t.Fatalf("seed %d k=%d: certificate claimed recoverable for failing pattern %v",
							seed, k, sp.idx)
					}
				} else {
					evaluated++
				}
			}
			if certified == 0 {
				t.Errorf("seed %d k=%d: certificate never fired over 4000 trials", seed, k)
			}
			_ = evaluated
		}
	}
}

// TestSampledMatchesScalarVerdicts runs full blocks and cross-checks the
// pooled tally against a scalar-kernel replay of the identical RNG
// stream.
func TestSampledMatchesScalarVerdicts(t *testing.T) {
	g := unscreened96(t, 7)
	c := decode.NewCSR(g)
	const k, trials = 5, 20000
	sp := NewStratifiedSampler(c)
	blk, err := sp.SampleBlock(context.Background(), k, trials, 42, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the stream with the scalar kernel.
	rng := rand.NewPCG(42^sampledSeedDomain, uint64(k)<<32|3)
	ref := decode.NewKernel(c)
	idx := make([]int, k)
	scratch := make([]uint64, c.Words)
	var hits int64
	for i := 0; i < trials; i++ {
		combin.RandomSubset(idx, g.Total, rng, scratch)
		if idx[0] < g.Data && !ref.Recoverable(idx) {
			hits++
		}
	}
	tally := blk.Tally()
	if tally.Trials != trials {
		t.Fatalf("block tallied %d trials, want %d", tally.Trials, trials)
	}
	if tally.Hits != hits {
		t.Fatalf("block found %d failures, scalar replay found %d", tally.Hits, hits)
	}
	for _, w := range blk.Witnesses {
		if ref.Recoverable(w) {
			t.Fatalf("witness %v is recoverable", w)
		}
	}
	if blk.Screened == 0 {
		t.Error("screening never resolved a pattern")
	}
}

// screenRef is classify as it stood when every pattern was sorted first:
// collision counts in a map, and the rescue loop stopping at the first
// check node of the ascending pattern.
func screenRef(c *decode.CSR, idx []int, k int) (strat int, certified bool) {
	count := map[int32]int{}
	for _, v := range idx {
		for _, r := range c.Parents(int32(v)) {
			count[r]++
		}
		if v >= int(c.Data) {
			count[int32(v)]++
		}
	}
	maxC := 0
	for _, n := range count {
		maxC = max(maxC, n)
	}
	if maxC <= 1 {
		return 1, true
	}
	for _, v := range idx {
		if v >= int(c.Data) {
			break
		}
		if !slices.ContainsFunc(c.Parents(int32(v)), func(r int32) bool { return count[r] == 1 }) {
			return min(maxC, k), false
		}
	}
	return min(maxC, k), true
}

// TestSampleBlockMatchesSortedScreen: SampleBlock, which screens each
// pattern unsorted on the PCG's own draw, tallies every stratum, Screened
// and the witnesses exactly as a replay of the stream through the sorted
// RandomSubset, screenRef and the scalar kernel does, on unscreened
// 96-node graphs (most patterns decoded, most drawn sorted), an unscreened
// 2,050-node one (drawn unsorted, many rescued) and the n=30,000 graph
// (all screened). A sampler whose epoch is about to leave its 32 bits returns
// the block a fresh one does.
func TestSampleBlockMatchesSortedScreen(t *testing.T) {
	p := core.DefaultParams()
	p.TotalNodes = 2050
	g2050, err := core.GenerateUnscreened(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{unscreened96(t, 7), unscreened96(t, 8), g2050, streamGraph(t, 30000)}
	for gi, g := range graphs {
		c := decode.NewCSR(g)
		ref := decode.NewKernel(c)
		for _, k := range []int{2, 5, 9} {
			const trials, maxWitnesses = 5000, 16
			stream := uint64(gi)
			got, err := NewStratifiedSampler(c).SampleBlock(context.Background(), k, trials, 2006, stream, maxWitnesses)
			if err != nil {
				t.Fatal(err)
			}
			want := SampledBlock{Strata: make([]stats.Proportion, k+1)}
			src := rand.NewPCG(2006^sampledSeedDomain, uint64(k)<<32|stream)
			idx := make([]int, k)
			for i := 0; i < trials; i++ {
				combin.RandomSubset(idx, g.Total, src, nil)
				strat, ok := screenRef(c, idx, k)
				if ok {
					want.Strata[strat].Add(0, 1)
					want.Screened++
					continue
				}
				var hit int64
				if !ref.Recoverable(idx) {
					hit = 1
					if len(want.Witnesses) < maxWitnesses {
						want.Witnesses = append(want.Witnesses, slices.Clone(idx))
					}
				}
				want.Strata[strat].Add(hit, 1)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d k=%d: SampleBlock\n%+v\nsorted replay\n%+v", gi, k, got, want)
			}
			sp := NewStratifiedSampler(c)
			sp.epoch = math.MaxUint32 - trials/2
			wrapped, err := sp.SampleBlock(context.Background(), k, trials, 2006, stream, maxWitnesses)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wrapped, got) {
				t.Fatalf("graph %d k=%d: across the epoch wrap\n%+v\nfresh\n%+v", gi, k, wrapped, got)
			}
		}
	}
}

// TestSampledWorkerCountIndependence: the acceptance bit — same seed,
// same result, any worker count.
func TestSampledWorkerCountIndependence(t *testing.T) {
	g := unscreened96(t, 11)
	opts := SampledOptions{Seed: 9, MaxTrials: 40000, BlockSize: 4096, Epsilon: -1, Workers: 1}
	want, err := SampleStratifiedCtx(context.Background(), g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 7} {
		opts.Workers = w
		got, err := SampleStratifiedCtx(context.Background(), g, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: result differs from workers=1:\n%+v\nvs\n%+v", w, got, want)
		}
	}
	if want.Tally.Trials != 40000 {
		t.Fatalf("epsilon disabled but only %d trials run", want.Tally.Trials)
	}
}

// TestSampledStoppingRule pins the planned-precision contract on a
// screened graph: the sampler stops after the first block whose pooled
// half-width reaches epsilon.
func TestSampledStoppingRule(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	// Screened graph at k=2: failures are essentially absent, so the
	// zero-hit half-width math governs. One 4096-trial block gives
	// hw ≈ 1.92/4100 ≈ 4.7e-4; epsilon 1e-3 must stop after block one.
	res, err := SampleStratifiedCtx(context.Background(), g, 2, SampledOptions{
		Seed: 5, MaxTrials: 1 << 20, BlockSize: 4096, Epsilon: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 || res.Tally.Trials != 4096 {
		t.Fatalf("stopping rule fired after %d blocks / %d trials, want 1 block / 4096 trials",
			len(res.Rounds), res.Tally.Trials)
	}
	if hw := res.HalfWidth(); hw > 1e-3 {
		t.Fatalf("reported half-width %v exceeds the target", hw)
	}
	// The trajectory is recorded for every block and is nonincreasing on a
	// zero-hit run.
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].HalfWidth > res.Rounds[i-1].HalfWidth {
			t.Fatal("half-width widened across blocks on a zero-hit run")
		}
	}
}

// TestSampledStopsAtFirstBlock: on a graph with real failures, where the
// half-width does not shrink block by block, sampling stops after the
// first block at which the pooled half-width is within epsilon — the run
// is the budget's first blocks, cut there — and the result is the same
// at 1, 2 and 4 workers.
func TestSampledStopsAtFirstBlock(t *testing.T) {
	g := unscreened96(t, 0)
	const eps = 2e-3
	opts := SampledOptions{Seed: 4, MaxTrials: 32 * 256, BlockSize: 256, Epsilon: -1, Workers: 1}
	full, err := SampleStratifiedCtx(context.Background(), g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := slices.IndexFunc(full.Rounds, func(r SampledRound) bool { return r.HalfWidth <= eps })
	if stop < 2 {
		t.Fatalf("half-widths %v: the test wants a run that stops after a few blocks", full.Rounds)
	}
	opts.Epsilon = eps
	var want *SampledResult
	for _, w := range []int{1, 2, 4} {
		opts.Workers = w
		got, err := SampleStratifiedCtx(context.Background(), g, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			if !slices.Equal(got.Rounds, full.Rounds[:stop+1]) {
				t.Fatalf("stopped run's trajectory %v, want the full run's up to its first half-width within %g: %v", got.Rounds, eps, full.Rounds[:stop+1])
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: result differs from workers=1:\n%+v\nvs\n%+v", w, got, want)
		}
	}
}

// TestSampledStoppedIntervalCovers: the stopping rule looks after every
// block, a fixed-width sequential interval (Chow and Robbins 1965), whose
// coverage only tends to the nominal 95% as epsilon shrinks. On a graph
// whose failure fraction at k=4 is known exactly (8,931 of C(96, 4)
// patterns), the stopped Wilson interval must cover it in at least 90% of
// 200 seeds (DESIGN.md "Planned precision").
func TestSampledStoppedIntervalCovers(t *testing.T) {
	g := unscreened96(t, 0)
	kr, err := ExhaustiveKCtx(context.Background(), g, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := float64(kr.FailureCount) / float64(kr.Tested)
	const seeds = 200
	covered := 0
	for seed := range uint64(seeds) {
		res, err := SampleStratifiedCtx(context.Background(), g, 4, SampledOptions{Seed: seed, BlockSize: 1024, Epsilon: 1e-3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi := res.Wilson(); lo <= p && p <= hi {
			covered++
		}
	}
	if covered < seeds*9/10 {
		t.Errorf("the stopped interval covers P(fail) = %.4g in %d of %d seeds, want at least 90%%", p, covered, seeds)
	}
	t.Logf("P(fail) = %.4g covered in %d of %d seeds", p, covered, seeds)
}

// TestSampledPlanSchedule pins the plan: one group per cardinality, its
// blocks tiling the trial budget exactly — block b on stream b, the last
// one short — numbered in plan order.
func TestSampledPlanSchedule(t *testing.T) {
	g := mirrorGraph(12)
	j := NewSampledJob(g, 3, 4, SampledOptions{MaxTrials: 100000, BlockSize: 4096, Seed: 7, MaxWitnesses: 2})
	if j.Err != nil || len(j.Groups) != 2 {
		t.Fatalf("plan has %d groups and error %v, want one per cardinality", len(j.Groups), j.Err)
	}
	id := 0
	for gi, grp := range j.Groups {
		if len(grp) != 25 {
			t.Fatalf("k=%d: %d blocks, want 25", gi+3, len(grp))
		}
		var trials int64
		for b, u := range grp {
			want := Unit{ID: id, K: gi + 3, Trials: min(4096, 100000-int64(b)*4096), Seed: 7, Stream: uint64(b), Stratified: true, MaxFailures: 2}
			if u != want {
				t.Fatalf("k=%d block %d is %+v, want %+v", gi+3, b, u, want)
			}
			trials += u.Trials
			id++
		}
		if trials != 100000 {
			t.Fatalf("k=%d: blocks tile %d trials, want 100000", gi+3, trials)
		}
	}
}

// TestProfileWorkerCountIndependence is the profile-block regression test: the
// same seed must produce the identical profile no matter the worker
// count, including when trials % workers != 0.
func TestProfileWorkerCountIndependence(t *testing.T) {
	g := unscreened96(t, 2)
	base := ProfileOptions{Trials: 100003, MinK: 4, MaxK: 5, Seed: 77, Workers: 1}
	want, err := FailureProfileCtx(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 5, 8} {
		opts := base
		opts.Workers = w
		got, err := FailureProfileCtx(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := base.MinK; k <= base.MaxK; k++ {
			if got.Fail[k] != want.Fail[k] {
				t.Fatalf("workers=%d k=%d: tally %v, want %v (worker-count dependence)",
					w, k, got.Fail[k], want.Fail[k])
			}
		}
	}
}

// TestSampledArchivalScale is the tentpole smoke: a sampled certification
// at n=10,000 and k=5 reaches the 1e-4 half-width target from a cold
// start in seconds, with screening resolving nearly every pattern.
func TestSampledArchivalScale(t *testing.T) {
	p := core.DefaultParams()
	p.TotalNodes = 10000
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SampleStratifiedCtx(context.Background(), g, 5, SampledOptions{Seed: 2006})
	if err != nil {
		t.Fatal(err)
	}
	if hw := res.HalfWidth(); hw > 1e-4 {
		t.Fatalf("half-width %v did not reach the 1e-4 default target (trials %d)", hw, res.Tally.Trials)
	}
	if res.ScreenRate() < 0.9 {
		t.Errorf("screening resolved only %.1f%% of patterns at n=10k", 100*res.ScreenRate())
	}
	if res.Tally.Hits > 0 && len(res.Witnesses) == 0 {
		t.Error("failures tallied but no witness recorded")
	}
}
