package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
)

// The reconstruction overhead — the shortest prefix T of a uniformly random
// arrival order that decodes (the experiment the paper defers to §5.2/§6,
// after Plank: "retrieve nodes until the graph can be reconstructed") — is
// read off the failure profile: with k offline the data is lost exactly
// when T > Total−k, so P(T > m) = FailFraction(Total−m), E[T] =
// AvgNodesToReconstruct and T's q-quantile is
// NodesForSuccessProbability(q). A profile samples every point off its
// arrival orders; the exact comparisons fold in a worst case (AddExact).

func TestOverheadMirrorExact(t *testing.T) {
	// For a mirrored system, a prefix reconstructs iff it covers every
	// pair (either member): at least 6 retrievals of 12 drives, and at
	// most 11 (after 11 drives only one is missing, and its pair was
	// surely seen).
	g := mirrorGraph(6)
	p, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: 4000, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < g.Total; k++ {
		if p.Exact[k] || p.Fail[k].Trials != 4000 {
			t.Fatalf("k=%d: %d trials (exact %v), want 4000 sampled", k, p.Fail[k].Trials, p.Exact[k])
		}
	}
	if f := p.FailFraction(g.Total - 5); f != 1 {
		t.Errorf("P(T > 5) = %v: a retrieval count below 6 observed", f)
	}
	if f := p.FailFraction(g.Total - 11); f != 0 {
		t.Errorf("P(T > 11) = %v: a retrieval count above 11 observed", f)
	}
	if m := p.AvgNodesToReconstruct(); m < 6 || m > 11 {
		t.Errorf("mean = %v", m)
	}
}

func TestOverheadCouponCollectorMean(t *testing.T) {
	// The mirrored minimum-prefix length is the number of draws (without
	// replacement) needed to touch all n pairs. For n=2 pairs (4 drives),
	// brute-force it over all 24 orders.
	g := mirrorGraph(2)
	perm := []int{0, 1, 2, 3}
	var total, count float64
	var rec func(k int)
	used := make([]bool, 4)
	cur := make([]int, 0, 4)
	d := decode.New(g)
	rec = func(k int) {
		if k == 4 {
			order := append([]int(nil), cur...)
			n, ok := minimumPrefix(d, order)
			if !ok {
				t.Fatal("mirror not decodable")
			}
			total += float64(n)
			count++
			return
		}
		for _, v := range perm {
			if !used[v] {
				used[v] = true
				cur = append(cur, v)
				rec(k + 1)
				cur = cur[:len(cur)-1]
				used[v] = false
			}
		}
	}
	rec(0)
	want := total / count

	sampled, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: 60000, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sampled.AvgNodesToReconstruct(); math.Abs(got-want) > 0.03 {
		t.Errorf("sampled mean %v, exact %v", got, want)
	}
	// Enumerating every point instead is the exact expectation.
	exact := exactProfile(t, g, ProfileOptions{})
	if got := exact.AvgNodesToReconstruct(); math.Abs(got-want) > 1e-12 {
		t.Errorf("enumerated mean %v, exact %v", got, want)
	}
}

func TestOverheadTornadoShape(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Literature shape: overhead between 1.0 (MDS) and ~1.5 for small
	// LDPC graphs, and a median between the data count and the paper's
	// Table 6 range.
	if oh := p.AvgToReconstructRatio(); oh < 1.0 || oh > 1.6 {
		t.Errorf("mean overhead = %v", oh)
	}
	median := p.NodesForSuccessProbability(0.5)
	if median < g.Data || median > 70 {
		t.Errorf("median retrieval count = %d", median)
	}
	if p.NodesForSuccessProbability(0.99) < median {
		t.Error("quantiles not monotone")
	}
}

func TestOverheadBrokenGraph(t *testing.T) {
	// A closed pair: two data nodes whose two checks both cover exactly
	// the pair, so the checks cannot recover both data nodes at once, and
	// no order decodes from fewer than two blocks.
	b := graph.NewBuilder(2)
	r := b.AddLevel(0, 2, 2)
	g := b.Graph()
	g.SetNeighbors(r, []int{0, 1})
	g.SetNeighbors(r+1, []int{0, 1})
	p, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f := p.FailFraction(g.Total - 1); f != 1 {
		t.Errorf("P(T > 1) = %v: a retrieval count below 2 is impossible for the closed pair", f)
	}
	// Enumerated, two offline lose data only when both are data nodes: 1
	// of the 6 pairs.
	exact := exactProfile(t, g, ProfileOptions{})
	if f := exact.Fail[2]; f.Hits != 1 || f.Trials != 6 {
		t.Errorf("two offline: %d of %d lose data, want 1 of 6", f.Hits, f.Trials)
	}
}

// replayArrivalOrders regenerates the first trials arrival orders of a
// profile with the given seed, cut into blocks of blockSize: block b
// shuffled from the identity by PCG stream (seed, arrivalStreamTag|b). It
// returns each order's threshold by the prefix-search oracle.
func replayArrivalOrders(t *testing.T, g *graph.Graph, seed uint64, trials, blockSize int64) []int {
	t.Helper()
	d := decode.New(g)
	order := make([]int, g.Total)
	var ts []int
	for b := int64(0); b*blockSize < trials; b++ {
		for i := range order {
			order[i] = i
		}
		rng := rand.New(rand.NewPCG(seed, arrivalStreamTag|uint64(b)))
		for range min(blockSize, trials-b*blockSize) {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			n, ok := minimumPrefix(d, order)
			if !ok {
				t.Fatalf("%s: the full node set does not decode", g.Name)
			}
			ts = append(ts, n)
		}
	}
	return ts
}

// TestProfileMatchesArrivalOrderOracle is the differential test of the
// overhead statistics: the profile's arrival orders, replayed and searched
// by minimumPrefix, give the profile's average to reconstruct as their mean
// and its 50% and 99% points as their median and 99th percentile. The
// shipped graphs first fail at 3 or more offline, so the enumerated points
// (k ≤ 2 and k ≥ 94) agree with every order: none fails below 3, all fail
// from 94. It runs the production profile (one DefaultSampledBlock block)
// and a job tiled in short blocks, the last one ragged.
func TestProfileMatchesArrivalOrderOracle(t *testing.T) {
	for i := 1; i <= 3; i++ {
		g, err := graphml.ReadFile(fmt.Sprintf("../../precompiled/tornado96-%d.graphml", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ trials, block int64 }{{1500, 0}, {1700, 400}} {
			opts := ProfileOptions{Trials: c.trials, Seed: uint64(i), Workers: 2}
			var p *Profile
			if c.block == 0 {
				p, err = FailureProfileCtx(context.Background(), g, opts)
			} else {
				j := NewProfileJob(g, opts, c.block)
				err = j.Run(context.Background(), NewLocalRunner(g, 2))
				p = j.Profile
			}
			if err != nil {
				t.Fatal(err)
			}
			if !p.FullWindow() {
				t.Fatalf("%s: profile window not full", g.Name)
			}
			ts := replayArrivalOrders(t, g, opts.Seed, c.trials, int64Or(c.block, DefaultSampledBlock))
			sum := 0
			for _, n := range ts {
				sum += n
			}
			mean := float64(sum) / float64(len(ts))
			slices.Sort(ts)
			// The smallest m with P(T ≤ m) ≥ q.
			quantile := func(q float64) int {
				for j, n := range ts {
					if float64(j+1) >= q*float64(len(ts)) {
						return n
					}
				}
				return g.Total
			}
			tag := fmt.Sprintf("%s, %d orders in blocks of %d", g.Name, c.trials, c.block)
			if got := p.AvgNodesToReconstruct(); math.Abs(got-mean) > 1e-9 {
				t.Errorf("%s: average to reconstruct %v, oracle mean %v", tag, got, mean)
			}
			for _, q := range []float64{0.5, 0.99} {
				if got, want := p.NodesForSuccessProbability(q), quantile(q); got != want {
					t.Errorf("%s: nodes for %v success %d, oracle quantile %d", tag, q, got, want)
				}
			}
		}
	}
}

func TestMinimumPrefixMonotone(t *testing.T) {
	g := mirrorGraph(4)
	d := decode.New(g)
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 50; trial++ {
		order := rng.Perm(g.Total)
		n, ok := minimumPrefix(d, order)
		if !ok {
			t.Fatal("mirror undecodable")
		}
		// The returned prefix decodes; one shorter does not.
		if !d.Recoverable(order[n:]) {
			t.Fatalf("prefix %d does not decode", n)
		}
		if n > 0 && d.Recoverable(order[n-1:]) {
			t.Fatalf("prefix %d is not minimal", n)
		}
	}
}

// minimumPrefix binary-searches the shortest decodable prefix of the
// retrieval order — about log2(Total) large-erasure peels — and is the
// oracle of the thresholds the profile's order sampler reads. order must
// contain every node exactly once.
func minimumPrefix(d *decode.Decoder, order []int) (int, bool) {
	total := len(order)
	decodable := func(n int) bool {
		// Present = order[:n]; erased = order[n:].
		return d.Recoverable(order[n:])
	}
	if !decodable(total) {
		return 0, false
	}
	lo, hi := 0, total // lo: not necessarily decodable; hi: decodable
	for lo < hi {
		mid := (lo + hi) / 2
		if decodable(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, true
}

// TestOverheadMatchesPrefixSearch: over 10,000 random orders on each of the
// shipped graphs and three unscreened 96-node graphs (real defects at low
// k), the threshold peel equals the binary search it replaced, so the
// profile's thresholds are the same for every seed. One goroutine does all the
// work, so it runs unraced only.
func TestOverheadMatchesPrefixSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine oracle loop: ~30 s under the race detector, kept in the unraced run")
	}
	var graphs []*graph.Graph
	for i := 1; i <= 3; i++ {
		g, err := graphml.ReadFile(fmt.Sprintf("../../precompiled/tornado96-%d.graphml", i))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g, unscreened96(t, uint64(i)))
	}
	for _, g := range graphs {
		d, oracle := decode.New(g), decode.New(g)
		rng := rand.New(rand.NewPCG(uint64(g.Total), 47))
		order := rng.Perm(g.Total)
		for trial := 0; trial < 10000; trial++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			want, ok := minimumPrefix(oracle, order)
			if got := d.Threshold(order, 0, g.Total); !ok || got != want {
				t.Fatalf("%s trial %d: threshold %d, prefix search %d (ok %v)", g.Name, trial, got, want, ok)
			}
		}
	}
}

// BenchmarkOverheadTrial is one arrival order on the profile's scalar
// oracle: a shuffle and one Decoder.Threshold peel.
func BenchmarkOverheadTrial(b *testing.B) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		b.Fatal(err)
	}
	d := decode.New(g)
	rng := rand.New(rand.NewPCG(1, 1))
	order := make([]int, g.Total)
	for i := range order {
		order[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Shuffle(len(order), func(x, y int) { order[x], order[y] = order[y], order[x] })
		if d.Threshold(order, 0, g.Total) > g.Total {
			b.Fatal("undecodable")
		}
	}
}
