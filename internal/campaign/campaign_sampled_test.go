package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

// TestSampledCampaignMatchesSim: a sampled campaign is the journaled,
// resumable form of sim.SampleStratifiedCtx — over the same seed and block
// layout the two must produce deeply equal results, at any worker count.
func TestSampledCampaignMatchesSim(t *testing.T) {
	g := testGraph(t)
	spec := Spec{
		Kind: KindSampled, MinK: 4, MaxK: 4,
		Trials: 40000, ShardSize: 4096, Seed: 9, Epsilon: -1,
	}
	want, err := sim.SampleStratifiedCtx(context.Background(), g, 4, sim.SampledOptions{
		Seed: 9, MaxTrials: 40000, BlockSize: 4096, Epsilon: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sampled) != 1 {
			t.Fatalf("workers=%d: %d sampled results, want 1", workers, len(res.Sampled))
		}
		if !reflect.DeepEqual(res.Sampled[0], want) {
			t.Errorf("workers=%d: campaign diverges from sim.SampleStratifiedCtx:\n got %+v\nwant %+v",
				workers, res.Sampled[0], want)
		}
		if res.WorkDone != want.Tally.Trials {
			t.Errorf("workers=%d: work done = %d, want %d", workers, res.WorkDone, want.Tally.Trials)
		}
	}
}

// TestSampledCampaignCrashResumeBitIdentical cancels a sampled campaign
// mid-run and resumes it under a different worker count; the final result
// must match an uninterrupted run byte for byte.
func TestSampledCampaignCrashResumeBitIdentical(t *testing.T) {
	g := testGraph(t)
	spec := Spec{
		Kind: KindSampled, MinK: 3, MaxK: 4,
		Trials: 40000, ShardSize: 2048, Seed: 17, Epsilon: -1,
	}

	uninterrupted, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunCtx(ctx, dir, g, spec, Options{
		Workers: 2,
		Progress: func(st Status) {
			if st.DoneShards >= 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.DoneShards == 0 || st.Completed {
		t.Fatalf("expected a partial journal, got %+v", st)
	}

	resumed, err := ResumeCtx(context.Background(), dir, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, resumed), marshal(t, uninterrupted); string(got) != string(want) {
		t.Errorf("resumed sampled result not bit-identical:\n got %s\nwant %s", got, want)
	}
}

// TestSampledCampaignStoppingRule: a cardinality that screens every trial
// reaches the epsilon target after its first block, leaving the rest of its
// budget unrun — and the early-stopped result round-trips through the
// content-addressed cache.
func TestSampledCampaignStoppingRule(t *testing.T) {
	g := testGraph(t)
	cache := t.TempDir()
	// k=1 is always recoverable (collision count 1 everywhere), so the
	// zero-hit Wilson math governs: one 4096-trial block gives half-width
	// ~4.7e-4 <= 1e-3 and the remaining blocks must be skipped.
	spec := Spec{
		Kind: KindSampled, MinK: 1, MaxK: 1,
		Trials: 1 << 20, ShardSize: 4096, Seed: 5, Epsilon: 1e-3,
	}
	dir := t.TempDir()
	res, err := RunCtx(context.Background(), dir, g, spec, Options{Workers: 2, CacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Sampled[0]
	if len(sr.Rounds) != 1 || sr.Tally.Trials != 4096 {
		t.Fatalf("stopping rule fired after %d blocks / %d trials, want 1 block / 4096 trials",
			len(sr.Rounds), sr.Tally.Trials)
	}
	if sr.ScreenRate() != 1 {
		t.Errorf("k=1 screen rate = %v, want 1", sr.ScreenRate())
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Completed || st.DoneShards >= st.TotalShards {
		t.Errorf("early stop should leave shards unrun: %+v", st)
	}

	hit, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 2, CacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("identical sampled spec missed the cache")
	}
	if got, want := marshal(t, hit), marshal(t, res); string(got) != string(want) {
		t.Error("cached sampled result diverges")
	}
}

// archivalGraph builds an edgeless n=100,000 fixture: planning consults
// only node counts, so no wiring is needed to exercise the overflow path.
func archivalGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(50000)
	b.AddLevel(0, 50000, 50000)
	g := b.Graph()
	g.Name = "archival-100k"
	return g
}

// TestExhaustiveOverflowFastFail is the acceptance bit for the overflow
// bugfix: an exhaustive spec at n=100k must fail fast — before any
// directory or shard work — with ErrRankOverflow and a message pointing at
// the sampled kind. C(100000, 5) ≈ 8.3e22 overflows int64 outright, and
// the cardinalities below it exceed the shard-planning budget, which
// reports through the same sentinel.
func TestExhaustiveOverflowFastFail(t *testing.T) {
	g := archivalGraph(t)
	dir := t.TempDir()
	_, err := RunCtx(context.Background(), dir+"/c", g, Spec{Kind: KindWorstCase, MaxK: 5}, Options{})
	if !errors.Is(err, combin.ErrRankOverflow) {
		t.Fatalf("exhaustive n=100k spec returned %v, want ErrRankOverflow", err)
	}
	if !strings.Contains(err.Error(), "sampled") {
		t.Errorf("overflow error does not point at the sampled kind: %v", err)
	}

	// The sampled kind accepts the same graph: planning succeeds without
	// touching the (astronomically large) rank space.
	spec := Spec{Kind: KindSampled, MinK: 5, MaxK: 5}.normalize(g.Total)
	job, err := spec.job(g)
	if err != nil {
		t.Fatalf("sampled plan at n=100k failed: %v", err)
	}
	if len(job.Groups) == 0 {
		t.Fatal("sampled plan is empty")
	}
}

// TestSampledSpecNormalizeAndCacheKey pins the sampled spec's defaults and
// its cache-key separation from the other kinds.
func TestSampledSpecNormalizeAndCacheKey(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindSampled}.normalize(g.Total)
	if spec.Trials != sim.DefaultSampledMaxTrials || spec.Epsilon != sim.DefaultSampledEpsilon {
		t.Errorf("sampled defaults: %+v", spec)
	}
	if spec.MinK != 1 || spec.MaxK != sim.DefaultMaxK || spec.MaxFailures != sim.DefaultMaxFailures {
		t.Errorf("sampled range defaults: %+v", spec)
	}
	if spec.KeepGoing {
		t.Errorf("sampled spec kept foreign fields: %+v", spec)
	}
	if orderVersion(spec) != scanOrderVersionSampled {
		t.Errorf("sampled order version = %q", orderVersion(spec))
	}
	// Epsilon participates in cache identity: a different precision target
	// is a different result.
	tight := Spec{Kind: KindSampled, Epsilon: 1e-5}
	if CacheKey(g, Spec{Kind: KindSampled}) == CacheKey(g, tight) {
		t.Error("epsilon change did not change the cache key")
	}
	prof := Spec{Kind: KindProfile, Trials: sim.DefaultSampledMaxTrials}
	if CacheKey(g, Spec{Kind: KindSampled}) == CacheKey(g, prof) {
		t.Error("sampled and profile specs share a cache key")
	}
}

// TestSampledJournalFromRoundsResumes: before the stopping rule looked after
// every block, it looked only after doubling rounds of 1, 2, 4, … blocks, so
// a sampled journal of that grouping may hold blocks past where the rule now
// stops. The plan's shards are the same, so such a journal resumes — under
// manifest version 7, unchanged — to the result a fresh run gets: its blocks
// past the stop are served but never folded.
func TestSampledJournalFromRoundsResumes(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindSampled, MinK: 2, MaxK: 3, Trials: 64 * 512, ShardSize: 512, Seed: 21, Epsilon: 5e-3}
	want, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// The blocks the rounds drew: a cardinality's first round edge (after
	// 1, 3, 7, … blocks) at which the half-width is within epsilon.
	norm := spec.normalize(g.Total)
	job, err := norm.job(g)
	if err != nil {
		t.Fatal(err)
	}
	var drawn []sim.Unit
	pastStop := false
	for ki, grp := range job.Groups {
		full, err := sim.SampleStratifiedCtx(context.Background(), g, norm.MinK+ki, sim.SampledOptions{
			Seed: norm.Seed, MaxTrials: norm.Trials, BlockSize: norm.ShardSize, Epsilon: -1, MaxWitnesses: norm.MaxFailures,
		})
		if err != nil {
			t.Fatal(err)
		}
		edge := 1
		for edge < len(grp) && full.Rounds[edge-1].HalfWidth > norm.Epsilon {
			edge = 2*edge + 1
		}
		edge = min(edge, len(grp))
		drawn = append(drawn, grp[:edge]...)
		pastStop = pastStop || edge > len(want.Sampled[ki].Rounds)
	}
	if !pastStop {
		t.Fatal("the rounds stop where the blocks do; the test wants a journal with blocks past the stop")
	}

	dir, _ := interruptedJournal(t, g, spec, 1)
	if err := os.Remove(filepath.Join(dir, journalFile)); err != nil {
		t.Fatal(err)
	}
	jw, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	lr := sim.NewLocalRunner(g, 1)
	for _, u := range drawn {
		res, err := lr.RunUnit(context.Background(), 0, u)
		if err == nil {
			err = jw.append(toRecord(u, res))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ResumeCtx(context.Background(), dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Errorf("resumed journal of the rounds differs from a fresh run:\n got %s\nwant %s", marshal(t, got), marshal(t, want))
	}
}
