package sim

import (
	"context"
	"math/rand/v2"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/stats"
)

// The tallies below were captured from SampleStreamCtx (now
// streamSampler.sample) and sampleK (now the profile job's block units) at commit
// 34981eb — the scalar decode.Kernel fed by the map-based RandomSubset —
// for tornado96-1 at seed 2006. The bit-sliced sampler must reproduce every
// one exactly: same rng.IntN sequence, same subsets, same verdicts.

// TestSampleStreamPinnedTallies pins single streams of 20000 trials. k = 49,
// 60 and 96 exceed the 48 checks, so they pin the undrawn all-fail shortcut
// against what decoding every trial used to report.
func TestSampleStreamPinnedTallies(t *testing.T) {
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	pins := []struct {
		k      int
		stream uint64
		hits   int64
	}{
		{5, 0, 0}, {5, 3, 0},
		{12, 0, 2}, {12, 3, 3},
		{24, 0, 569}, {24, 3, 559},
		{40, 0, 16808}, {40, 3, 16833},
		{48, 0, 20000}, {48, 3, 20000},
		{49, 0, 20000}, {49, 3, 20000},
		{60, 0, 20000}, {60, 3, 20000},
		{96, 0, 20000}, {96, 3, 20000},
	}
	for _, p := range pins {
		got, err := newStreamSampler(decode.NewCSR(g)).sample(context.Background(), p.k, trials, 2006, p.stream)
		if err != nil {
			t.Fatal(err)
		}
		if want := (stats.Proportion{Hits: p.hits, Trials: trials}); got != want {
			t.Errorf("k=%d stream %d: tally %+v, pinned %+v", p.k, p.stream, got, want)
		}
	}
}

// TestSampleKPinnedTallies pins 150000-trial points — two full blocks and a
// short third, the profile job's block units — through runGroup at 1, 4
// and 16 workers, each LocalRunner's samplers carried from one cardinality
// to the next as FailureProfileCtx carries them.
func TestSampleKPinnedTallies(t *testing.T) {
	if testing.Short() {
		t.Skip("8 x 150000-trial points x 3 worker counts skipped in -short mode")
	}
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 150000
	pins := []struct {
		k    int
		hits int64
	}{
		{5, 0}, {12, 41}, {24, 4115}, {40, 126298},
		{48, 150000}, {49, 150000}, {60, 150000}, {96, 150000},
	}
	for _, workers := range []int{1, 4, 16} {
		l := NewLocalRunner(g, workers)
		for _, p := range pins {
			res, err := runGroup(context.Background(), l, blockUnits(nil, Unit{K: p.k, Seed: 2006}, trials, DefaultSampledBlock, 0, 3))
			if err != nil {
				t.Fatal(err)
			}
			var got stats.Proportion
			for _, r := range res {
				got.Add(r.Tally.Hits, r.Tally.Trials)
			}
			if want := (stats.Proportion{Hits: p.hits, Trials: trials}); got != want {
				t.Errorf("workers=%d k=%d: tally %+v, pinned %+v", workers, p.k, got, want)
			}
		}
	}
}

// TestSampleStreamMatchesScalarReplay cross-checks the sampler on graphs
// with no pinned history — unscreened ones, which carry real defects at low
// k — against a scalar-kernel replay of the identical stream, on a sampler
// reused from point to point with a stale lane left in its kernel. The
// n=200 cascade has Data 100: its data nodes end inside the second bitset
// word, so a trial whose erased data nodes all sit in that word's low 36
// bits is decoded only if the sampler's data-word test reads them.
func TestSampleStreamMatchesScalarReplay(t *testing.T) {
	type tc struct {
		g    *graph.Graph
		seed uint64
		ks   []int
	}
	var cases []tc
	for seed := uint64(0); seed < 3; seed++ {
		cases = append(cases, tc{unscreened96(t, seed), seed, []int{1, 3, 7, 20, 33, 47, 48}})
	}
	p := core.DefaultParams()
	p.TotalNodes, p.MinFinalLeft = 200, 26 // levels of 50, 25 and 25 checks
	g200, err := core.GenerateUnscreened(p, rand.New(rand.NewPCG(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	// At k = 4, 5, 6 and 12 this stream has failing trials of that kind.
	cases = append(cases, tc{g200, 0, []int{1, 2, 3, 4, 5, 6, 8, 12, 20, 60, 99, 100}})
	for _, cs := range cases {
		g, seed := cs.g, cs.seed
		c := decode.NewCSR(g)
		ref := decode.NewKernel(c)
		sp := newStreamSampler(c)
		for _, k := range cs.ks {
			const trials = 3000
			rng := rand.New(rand.NewPCG(seed, uint64(k)<<32|5))
			idx := make([]int, k)
			var want int64
			for i := 0; i < trials; i++ {
				combin.RandomSubset(idx, g.Total, rng, nil)
				if !ref.Recoverable(idx) {
					want++
				}
			}
			sp.sk.Erase(k-1, 1<<9) // what a call canceled mid-word leaves staged
			got, err := sp.sample(context.Background(), k, trials, seed, 5)
			if err != nil {
				t.Fatal(err)
			}
			if got.Hits != want || got.Trials != trials {
				t.Errorf("n=%d seed %d k=%d: sampler %+v, scalar replay found %d failures", g.Total, seed, k, got, want)
			}
		}
	}
}

// BenchmarkFailureProfile is one default failure profile of tornado96-1 at
// 1000 trials a point on one worker — the profile step of bench's
// design_certify workload — reporting trials/s as that workload counts
// them: every point's trials or patterns, exact points included.
func BenchmarkFailureProfile(b *testing.B) {
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		b.Fatal(err)
	}
	opts := ProfileOptions{Trials: 1000, Workers: 1, Seed: 2006}
	var trials int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := FailureProfileCtx(context.Background(), g, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range p.Fail {
			trials += f.Trials
		}
	}
	b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
}
