package sim

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/raid"
	"tornado/internal/reliability"
)

// TestLifetimeMatchesMarkovNoRepair: without repair the profile-based
// Markov chain is exact for exchangeable systems (the survival product
// telescopes to 1−F(k)), so the event simulation must converge to it.
func TestLifetimeMatchesMarkovNoRepair(t *testing.T) {
	const pairs, lambda = 4, 0.5
	g := mirrorGraph(pairs)
	want, err := reliability.MTTDL(2*pairs, lambda, 0, 0, func(k int) float64 {
		return raid.MirroredFailGivenK(pairs, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{
		Lambda: lambda, Runs: 4000, Seed: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != 0 {
		t.Fatalf("%d truncated runs at tiny MTTDL", res.Truncated)
	}
	if rel := math.Abs(res.MeanYears-want) / want; rel > 0.10 {
		t.Errorf("simulated MTTDL %v vs Markov %v (rel %v)", res.MeanYears, want, rel)
	}
}

// TestLifetimeRepairApproximatesMarkov: with repair the count-based chain
// is an approximation (survivorship bias in the conditional configuration),
// so agreement is checked loosely.
func TestLifetimeRepairApproximatesMarkov(t *testing.T) {
	const pairs, lambda, mu = 4, 0.5, 5.0
	g := mirrorGraph(pairs)
	want, err := reliability.MTTDL(2*pairs, lambda, mu, 1, func(k int) float64 {
		return raid.MirroredFailGivenK(pairs, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{
		Lambda: lambda, Mu: mu, Repairmen: 1, Runs: 2500, Seed: 2, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.MeanYears-want) / want; rel > 0.35 {
		t.Errorf("simulated MTTDL %v vs Markov %v (rel %v)", res.MeanYears, want, rel)
	}
	t.Logf("with repair: simulated %v vs Markov %v", res.MeanYears, want)
}

func TestLifetimeRepairExtendsLife(t *testing.T) {
	g := mirrorGraph(6)
	none, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{Lambda: 0.4, Runs: 800, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	crew, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{
		Lambda: 0.4, Mu: 8, Repairmen: 2, Runs: 800, Seed: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if crew.MeanYears <= none.MeanYears {
		t.Errorf("repair did not extend lifetime: %v vs %v", crew.MeanYears, none.MeanYears)
	}
}

func TestLifetimeTornadoBeatsMirrorUnderSimulation(t *testing.T) {
	g := tornadoForAnnual(t)
	m := mirrorGraph(48)
	opts := LifetimeOptions{Lambda: 0.3, Mu: 6, Repairmen: 2, Runs: 250, Seed: 4, Workers: 2, MaxYears: 1e4}
	tr, err := SimulateLifetimeCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := SimulateLifetimeCtx(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lifetimes: tornado %v vs mirrored %v", tr.MeanYears, mr.MeanYears)
	if tr.MeanYears <= mr.MeanYears {
		t.Errorf("tornado lifetime %v <= mirrored %v", tr.MeanYears, mr.MeanYears)
	}
}

func TestLifetimeValidation(t *testing.T) {
	g := mirrorGraph(2)
	if _, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{Lambda: 0}); err == nil {
		t.Error("lambda 0 accepted")
	}
	if _, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{Lambda: 1, Mu: -1}); err == nil {
		t.Error("negative mu accepted")
	}
}

func TestLifetimeTruncation(t *testing.T) {
	// A tiny failure rate with aggressive repair: runs hit MaxYears.
	g := mirrorGraph(4)
	res, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{
		Lambda: 0.001, Mu: 1000, Repairmen: 4, Runs: 20, Seed: 5, MaxYears: 10, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Error("expected truncated runs")
	}
	if res.MeanYears > 10 {
		t.Errorf("mean %v exceeds MaxYears", res.MeanYears)
	}
}

// TestLifetimeDeterministicAcrossWorkers: MeanYears is the same float64, bit
// for bit, at every worker count — lifetimes are summed in run order — with
// repair (long runs, rejection draws in randomLive) and with truncation.
func TestLifetimeDeterministicAcrossWorkers(t *testing.T) {
	g := mirrorGraph(6)
	for _, opts := range []LifetimeOptions{
		{Lambda: 0.4, Mu: 8, Repairmen: 2, Runs: 9*lifetimeBlock + 3, Seed: 3},
		{Lambda: 0.2, Mu: 20, Repairmen: 2, Runs: 4*lifetimeBlock + 1, Seed: 4, MaxYears: 40},
	} {
		var want LifetimeResult
		for i, workers := range []int{1, 2, 3, 7} {
			opts.Workers = workers
			got, err := SimulateLifetimeCtx(context.Background(), g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("workers %d: %+v, workers 1: %+v", workers, got, want)
			}
		}
		if want.Runs != opts.Runs || want.MeanYears <= 0 || (opts.MaxYears > 0) != (want.Truncated > 0) {
			t.Errorf("implausible result %+v", want)
		}
	}
}

// referenceOneLifetime is oneLifetime without the per-worker scratch: a
// fresh failed list per run, rescanned on every rejection draw.
func referenceOneLifetime(g *graph.Graph, d *decode.Decoder, opts LifetimeOptions, rng *rand.Rand) (float64, bool) {
	var failed []int
	now := 0.0
	for now < opts.MaxYears {
		failRate := float64(g.Total-len(failed)) * opts.Lambda
		totalRate := failRate + float64(min(len(failed), opts.Repairmen))*opts.Mu
		if totalRate <= 0 {
			return opts.MaxYears, true
		}
		now += expRand(rng, totalRate)
		if now >= opts.MaxYears {
			return opts.MaxYears, true
		}
		if rng.Float64()*totalRate < failRate {
			v := rng.IntN(g.Total)
			for slices.Contains(failed, v) {
				v = rng.IntN(g.Total)
			}
			failed = append(failed, v)
			if !d.Recoverable(failed) {
				return now, false
			}
		} else {
			i := rng.IntN(min(len(failed), opts.Repairmen))
			failed[i] = failed[len(failed)-1]
			failed = failed[:len(failed)-1]
		}
	}
	return opts.MaxYears, true
}

// TestOneLifetimeMatchesReference: the liveness flags change no draw — one
// worker's scratch, reused run after run, gives the lifetimes the reference
// gives from the same stream — and they are all clear again after each run.
func TestOneLifetimeMatchesReference(t *testing.T) {
	g := tornadoForAnnual(t)
	opts := LifetimeOptions{Lambda: 0.3, Mu: 6, Repairmen: 2, MaxYears: 3}
	w := &simWorker{d: decode.New(g), nodes: make([]int, 0, g.Total), down: make([]bool, g.Total)}
	got, want := rand.New(rand.NewPCG(7, 7)), rand.New(rand.NewPCG(7, 7))
	truncated := 0
	for run := 0; run < 300; run++ {
		gotT, gotTrunc := oneLifetime(w, opts, got)
		wantT, wantTrunc := referenceOneLifetime(g, decode.New(g), opts, want)
		if gotT != wantT || gotTrunc != wantTrunc {
			t.Fatalf("run %d: lifetime %v (truncated %v), reference %v (%v)", run, gotT, gotTrunc, wantT, wantTrunc)
		}
		if slices.Contains(w.down, true) {
			t.Fatalf("run %d left a device flagged down", run)
		}
		if gotTrunc {
			truncated++
		}
	}
	if truncated == 0 || truncated == 300 {
		t.Errorf("%d of 300 runs truncated: want both endings exercised", truncated)
	}
}
