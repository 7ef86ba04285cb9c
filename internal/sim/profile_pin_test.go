package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/stats"
)

// TestSampleStreamPinnedTallies pins single streams of 20,000 arrival
// orders of tornado96-1 at seed 2006 — streams 0 and 3; a profile's block b
// draws from stream b — through orderSampler.sample, reading
// each point k off the histogram as the orders with T > Total−k. k = 48, 49
// and 60 fail in every order: their thresholds are at least Data. The
// window is a view, so a narrower one must agree on every point in it.
func TestSampleStreamPinnedTallies(t *testing.T) {
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	const minK, maxK = 5, 60
	pins := []struct {
		k      int
		stream uint64
		hits   int64
	}{
		{5, 0, 0}, {5, 3, 0},
		{12, 0, 7}, {12, 3, 3},
		{24, 0, 522}, {24, 3, 539},
		{40, 0, 16778}, {40, 3, 16766},
		{48, 0, trials}, {48, 3, trials},
		{49, 0, trials}, {49, 3, trials},
		{60, 0, trials}, {60, 3, trials},
	}
	s := newOrderSampler(decode.NewCSR(g))
	hists := map[uint64][]int64{}
	for _, stream := range []uint64{0, 3} {
		hist, err := s.sample(context.Background(), minK, maxK, trials, 2006, stream)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, c := range hist {
			n += c
		}
		if n != trials {
			t.Fatalf("stream %d: %d orders in the histogram, want %d", stream, n, trials)
		}
		hists[stream] = hist
	}
	// failures is point k's tally in a histogram over minK..maxK: the
	// orders with T > Total−k, the entries past index maxK−k.
	failures := func(hist []int64, maxK, k int) (hits int64) {
		for _, c := range hist[maxK-k+1:] {
			hits += c
		}
		return hits
	}
	for _, p := range pins {
		if got := failures(hists[p.stream], maxK, p.k); got != p.hits {
			t.Errorf("k=%d stream %d: %d failures, pinned %d", p.k, p.stream, got, p.hits)
		}
	}
	narrow, err := s.sample(context.Background(), 12, 24, trials, 2006, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 12; k <= 24; k++ {
		if got, want := failures(narrow, 24, k), failures(hists[3], maxK, k); got != want {
			t.Errorf("window 12..24 k=%d stream 3: %d failures, full window %d", k, got, want)
		}
	}
}

// TestSampleKPinnedTallies pins a 150,000-order profile of
// tornado96-1 at seed 2006 — two full order blocks and a short third — at 1,
// 4 and 16 workers. k = 49, 60 and 96 exceed the 48 checks: fewer than Data
// nodes survive, so every order fails there because its threshold is at
// least Data, not because a shortcut says so. Under the race detector only
// the 16-worker run is made.
func TestSampleKPinnedTallies(t *testing.T) {
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 150000
	pins := []struct {
		k    int
		hits int64
	}{
		{5, 0}, {12, 42}, {24, 3989}, {40, 126424},
		{48, trials}, {49, trials}, {60, trials}, {96, trials},
	}
	for _, workers := range []int{1, 4, 16} {
		if raceEnabled && workers < 16 {
			continue
		}
		p, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: trials, Seed: 2006, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, pin := range pins {
			want := stats.Proportion{Hits: pin.hits, Trials: trials}
			if got := p.Fail[pin.k]; got != want {
				t.Errorf("workers=%d k=%d: tally %+v, pinned %+v", workers, pin.k, got, want)
			}
		}
	}
}

// TestOrderSamplerMatchesThreshold reads one profile block — 1,000 orders,
// so the last sliced word is partial — on tornado96-1 and on an 896-node
// graph, over the full window and a narrow one, and replays the block's
// orders (the identity shuffled again and again on PCG stream (seed,
// arrivalStreamTag|block)) through Decoder.Threshold one at a time. The
// histograms must be identical.
func TestOrderSamplerMatchesThreshold(t *testing.T) {
	small, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.TotalNodes = 896
	large, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, 896)))
	if err != nil {
		t.Fatal(err)
	}
	const n, seed, block = 1000, 2006, 1
	for _, g := range []*graph.Graph{small, large} {
		csr := decode.NewCSR(g)
		for _, w := range [][2]int{{1, g.Total}, {g.Total / 8, g.Total / 4}} {
			got, err := newOrderSampler(csr).sample(context.Background(), w[0], w[1], n, seed, block)
			if err != nil {
				t.Fatal(err)
			}
			from, limit := g.Total-w[1], g.Total-w[0]
			want := make([]int64, len(got))
			d, order := decode.NewDecoder(csr), make([]int, g.Total)
			for i := range order {
				order[i] = i
			}
			rng := rand.New(rand.NewPCG(seed, arrivalStreamTag|block))
			for range n {
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				want[d.Threshold(order, from, limit)-from]++
			}
			if !slices.Equal(got, want) {
				t.Errorf("%d nodes, k=%d..%d: sampler histogram %v, Decoder.Threshold %v", g.Total, w[0], w[1], got, want)
			}
		}
	}
}

// cascade24 is an unscreened 24-node cascade: small enough to enumerate
// every cardinality, and it carries real low-k defects.
func cascade24(t *testing.T) *graph.Graph {
	t.Helper()
	p := core.DefaultParams()
	p.TotalNodes = 24
	g, err := core.GenerateUnscreened(p, rand.New(rand.NewPCG(24, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSampledPointsMatchEnumeration: every point read off the shared
// arrival orders is within 4σ of its exact enumeration (a KeepGoing worst
// case through Total, folded in) — each point is Binomial(Trials, p_k) on its own, however the
// points correlate — and AvgNodesToReconstruct is the plain mean of the
// orders' thresholds. The cascade's enumeration runs unraced only.
func TestSampledPointsMatchEnumeration(t *testing.T) {
	const trials = 40000
	graphs := []*graph.Graph{mirrorGraph(8), cascade24(t)}
	if raceEnabled {
		graphs = graphs[:1]
	}
	for _, g := range graphs {
		exact := exactProfile(t, g, ProfileOptions{Trials: 1, Workers: 2})
		opts := ProfileOptions{Trials: trials, Seed: 11, Workers: 2}
		p, err := FailureProfileCtx(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < g.Total; k++ {
			if !exact.Exact[k] || p.Exact[k] {
				t.Fatalf("%s k=%d: exact flags %v / %v", g.Name, k, exact.Exact[k], p.Exact[k])
			}
			want := exact.FailFraction(k)
			tol := 4 * math.Sqrt(want*(1-want)/trials)
			if got := p.FailFraction(k); math.Abs(got-want) > tol+1e-12 {
				t.Errorf("%s k=%d: sampled %.5f, exact %.5f (4σ = %.5f)", g.Name, k, got, want, tol)
			}
		}

		j := NewProfileJob(g, opts, 0)
		lr := NewLocalRunner(g, 1)
		var sum, orders int64
		for _, u := range j.Groups[0] {
			r, err := lr.RunUnit(context.Background(), 0, u)
			if err != nil {
				t.Fatal(err)
			}
			from := g.Total - u.MaxK // hist[0] is T = from
			for thr, n := range r.Thresholds {
				sum += int64(from+thr) * n
				orders += n
			}
		}
		if orders != trials {
			t.Fatalf("%s: %d orders in the histograms, want %d", g.Name, orders, trials)
		}
		if got, want := p.AvgNodesToReconstruct(), float64(sum)/trials; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: AvgNodesToReconstruct %v, threshold mean %v", g.Name, got, want)
		}
	}
}

// TestProfileWindowIsAView: a point's tally is the same whatever window it
// is measured in — the orders do not depend on MinK or MaxK, and stopping an
// order once it passes Total−MinK arrivals changes no point in the window.
func TestProfileWindowIsAView(t *testing.T) {
	g := cascade24(t)
	full, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{3, 9}, {10, 10}, {12, 0}, {20, 23}} {
		p, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: 5000, Seed: 3, MinK: w[0], MaxK: w[1]})
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= g.Total; k++ {
			if in := k >= w[0] && (w[1] == 0 || k <= w[1]); in && p.Fail[k] != full.Fail[k] || !in && p.Fail[k].Trials != 0 {
				t.Errorf("window %v k=%d: tally %+v, full profile %+v", w, k, p.Fail[k], full.Fail[k])
			}
		}
	}
}

// TestEmptyWindowIsAnError: a window that holds no cardinality once
// normalized — MinK above MaxK, or above Total — is refused with
// ErrEmptyWindow by the profile and the sampled certification alike,
// not answered with an empty result.
func TestEmptyWindowIsAnError(t *testing.T) {
	g := mirrorGraph(8)
	for _, o := range []ProfileOptions{{MinK: 10, MaxK: 5}, {MinK: 17}} {
		if p, err := FailureProfileCtx(context.Background(), g, o); !errors.Is(err, ErrEmptyWindow) {
			t.Errorf("profile window %d..%d: %v, %v; want ErrEmptyWindow", o.MinK, o.MaxK, p, err)
		}
	}
	j := NewSampledJob(g, 6, 5, SampledOptions{})
	if !errors.Is(j.Err, ErrEmptyWindow) {
		t.Errorf("sampled window 6..5: Job.Err = %v, want ErrEmptyWindow", j.Err)
	}
	if err := j.Run(context.Background(), NewLocalRunner(g, 1)); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("sampled window 6..5 ran to %v, want ErrEmptyWindow", err)
	}
}

// BenchmarkFailureProfile is one default failure profile of tornado96-1 at
// 1000 trials a point on one worker — the profile step of bench's
// design_certify workload — reporting trials/s as that workload counts
// them: every point's trials, summed over the points.
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

// TestFoldedProfileJob: the folded plan — the KeepGoing worst-case search
// to DefaultMaxK, then the arrival-order blocks — ends in
// FailureProfileCtx's profile with AddExact(WorstCaseCtx(KeepGoing))
// applied, bit for bit: on tornado96-1 (certified first failure 5) over the
// full window and a partial one, and on a 4-node mirror, whose search stops
// at k = Total, short of DefaultMaxK, without an error. At n = 10,000 the
// plan leaves out every cardinality past exhaustiveBudget quietly: it
// searches k = 1..2.
func TestFoldedProfileJob(t *testing.T) {
	ctx := context.Background()
	t96, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g    *graph.Graph
		opts ProfileOptions
	}{
		{t96, ProfileOptions{Trials: 3000, Seed: 7}},
		{t96, ProfileOptions{Trials: 3000, Seed: 7, MinK: 4, MaxK: 8}},
		{mirrorGraph(2), ProfileOptions{Trials: 500, Seed: 1}},
	} {
		want, err := FailureProfileCtx(ctx, c.g, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		// A graph smaller than DefaultMaxK ends its search with an error
		// after its last cardinality; what it examined still folds in.
		wc, _ := WorstCaseCtx(ctx, c.g, WorstCaseOptions{KeepGoing: true})
		if err := want.AddExact(wc); err != nil {
			t.Fatal(err)
		}
		j := NewFoldedProfileJob(c.g, c.opts, 0)
		if err := j.Run(ctx, NewLocalRunner(c.g, 2)); err != nil {
			t.Fatalf("%s %+v: %v", c.g.Name, c.opts, err)
		}
		if !reflect.DeepEqual(j.Profile, want) {
			t.Errorf("%s %+v: folded plan\n got %+v\nwant %+v", c.g.Name, c.opts, j.Profile.Fail[:9], want.Fail[:9])
		}
	}

	big := NewFoldedProfileJob(mirrorGraph(5000), ProfileOptions{Trials: 64, MinK: 1, MaxK: 3}, 0)
	if big.Err != nil || len(big.Groups) != 3 || big.Groups[0][0].K != 1 || big.Groups[1][0].K != 2 || big.Groups[2][0].Trials != 64 {
		t.Errorf("n=10,000: plan %v (err %v), want k=1, k=2, then one order block", big.Groups, big.Err)
	}
}

// TestReport: the one summary of a profile prints the graph and the first
// failure always — "none observed" with the points searched when nothing
// failed, not a 0 — and the average nodes, the 50% and 99% success points
// and P(fail) at AFR 1% only over the full window — a partial one prints
// the notice instead. Folded or not changes the figures, not the lines: on
// tornado96-1 a folded profile reports the certified first failure 5 and a
// P(fail) no smaller than its k=5 term, 6.41e-10, which the sample alone
// misses.
func TestReport(t *testing.T) {
	ctx := context.Background()
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	wc, err := WorstCaseCtx(ctx, g, WorstCaseOptions{KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	figures := []string{"avg nodes to reconstruct: ", "nodes for 50% success:    ", "nodes for 99% success:    ", "P(fail) at AFR 1%:        "}
	const notice = "avg nodes, 50%/99% success and P(fail) need the full window (-mink 1 -maxk 96)\n"
	for _, c := range []struct {
		folded   bool
		min, max int
	}{{false, 0, 0}, {true, 0, 0}, {false, 4, 8}, {true, 4, 8}} {
		p, err := FailureProfileCtx(ctx, g, ProfileOptions{Trials: 1000, Seed: 1, MinK: c.min, MaxK: c.max})
		if err != nil {
			t.Fatal(err)
		}
		if c.folded {
			if err := p.AddExact(wc); err != nil {
				t.Fatal(err)
			}
		}
		full := c.max == 0
		out := p.Report()
		first := fmt.Sprintf("%d offline nodes", p.FirstObservedFailure())
		if !c.folded && !full {
			// No order fails at 4..8 offline nodes: the line names the
			// window, not a count of 0.
			first = "none observed (4..8 offline nodes searched)"
		} else if c.folded != (p.FirstObservedFailure() == 5) {
			t.Errorf("folded %v, window %d..%d: first failure %d, want 5 iff folded", c.folded, c.min, c.max, p.FirstObservedFailure())
		}
		if !strings.HasPrefix(out, "graph:                    tornado96-1\nfirst observed failure:   "+first+"\n") {
			t.Errorf("folded %v, window %d..%d: does not open with the graph and %q:\n%s", c.folded, c.min, c.max, first, out)
		}
		for _, f := range figures {
			if strings.Contains(out, "\n"+f) != full {
				t.Errorf("folded %v, window %d..%d: %q printed %v, want %v:\n%s", c.folded, c.min, c.max, f, !full, full, out)
			}
		}
		if strings.HasSuffix(out, notice) == full {
			t.Errorf("folded %v, window %d..%d: full-window notice printed %v, want %v:\n%s", c.folded, c.min, c.max, full, !full, out)
		}
		if !full {
			continue
		}
		var pfail float64
		if _, err := fmt.Sscan(out[strings.LastIndex(out, ":")+1:], &pfail); err != nil {
			t.Fatal(err)
		}
		if c.folded != (pfail >= 6.41e-10) {
			t.Errorf("folded %v: P(fail) = %g, want at least the k=5 term 6.41e-10 iff folded", c.folded, pfail)
		}
	}
}

// TestShuffleMatchesRandShuffle: the profile's shuffle makes exactly
// rand.Shuffle's swaps on a twin PCG, over 10,000 successive shuffles of
// each length — sizes whose bounds are powers of two take the mask path,
// the rest Lemire's multiply with rejection — and leaves both streams at
// the same point.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 96, 1000} {
		src := rand.NewPCG(7, uint64(n))
		twin := rand.New(rand.NewPCG(7, uint64(n)))
		got, want := make([]int, n), make([]int, n)
		for i := range got {
			got[i], want[i] = i, i
		}
		for i := 0; i < 10000; i++ {
			shuffle(src, got)
			twin.Shuffle(n, func(a, b int) { want[a], want[b] = want[b], want[a] })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: shuffle %d differs from rand.Shuffle", n, i)
			}
		}
		if a, b := src.Uint64(), twin.Uint64(); a != b {
			t.Errorf("n=%d: streams diverged: next draws %#x and %#x", n, a, b)
		}
	}
}
