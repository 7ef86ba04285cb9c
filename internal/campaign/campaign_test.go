package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/obs"
	"tornado/internal/sim"
)

// testGraph builds a small cascaded graph with a known weakness: every data
// node is covered by exactly one level-1 check, so losing a data node
// together with its check is unrecoverable — the worst case is 2 lost
// nodes. 16 data + 8 + 4 checks = 28 nodes keeps exhaustive scans fast
// while still yielding multi-shard plans at small shard sizes.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(16)
	r1 := b.AddLevel(0, 16, 8)
	r2 := b.AddLevel(r1, 8, 4)
	g := b.Graph()
	for i := 0; i < 8; i++ {
		g.SetNeighbors(r1+i, []int{2 * i, 2*i + 1})
	}
	for i := 0; i < 4; i++ {
		g.SetNeighbors(r2+i, []int{r1 + 2*i, r1 + 2*i + 1})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Name = "campaign-test"
	return g
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorstCaseCampaignMatchesSim(t *testing.T) {
	g := testGraph(t)
	// MaxFailures large enough to record every failing set, so both the
	// campaign and sim lists are the complete sorted enumeration and can be
	// compared exactly.
	spec := Spec{Kind: KindWorstCase, MaxK: 3, MaxFailures: 100000, KeepGoing: true, ShardSize: 128}

	res, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 3, MaxFailures: 100000, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstCase == nil {
		t.Fatal("no worst-case result")
	}
	if !reflect.DeepEqual(*res.WorstCase, want) {
		t.Errorf("campaign result diverges from sim.WorstCaseCtx:\n got %+v\nwant %+v", *res.WorstCase, want)
	}
	if res.WorstCase.FirstFailure != 2 {
		t.Errorf("first failure = %d, want 2", res.WorstCase.FirstFailure)
	}
	if res.WorkDone != want.Tested {
		t.Errorf("work done = %d, want %d", res.WorkDone, want.Tested)
	}
}

func TestEarlyStopSkipsHigherCardinalities(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	spec := Spec{Kind: KindWorstCase, MaxK: 4, MaxFailures: 8, ShardSize: 128}
	res, err := RunCtx(context.Background(), dir, g, spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstCase.FirstFailure != 2 || len(res.WorstCase.PerK) != 2 {
		t.Errorf("early stop: %+v", res.WorstCase)
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Completed {
		t.Error("status not completed")
	}
	if st.DoneShards >= st.TotalShards {
		t.Errorf("early stop should leave shards unrun: %d/%d", st.DoneShards, st.TotalShards)
	}
}

// TestCrashResumeBitIdentical is the crash/resume integration test: cancel
// a campaign mid-run, resume it, and require the final result to be
// bit-identical (JSON bytes) to an uninterrupted run of the same spec.
func TestCrashResumeBitIdentical(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindWorstCase, MaxK: 3, MaxFailures: 64, KeepGoing: true, ShardSize: 128}

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

	var resumedShards int
	resumed, err := ResumeCtx(context.Background(), dir, Options{
		Workers: 4,
		Progress: func(s Status) {
			if !s.Completed {
				resumedShards = s.DoneShards
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Cached {
		t.Error("resume of a partial campaign reported cached")
	}
	if got, want := marshal(t, resumed), marshal(t, uninterrupted); string(got) != string(want) {
		t.Errorf("resumed result not bit-identical:\n got %s\nwant %s", got, want)
	}
	if resumed.WorstCase.FailureCountAt(2) != uninterrupted.WorstCase.FailureCountAt(2) {
		t.Error("failure counts diverge") // redundant with the byte compare; kept for a readable failure
	}
	if resumedShards <= st.DoneShards {
		t.Errorf("resume reran journaled shards: went from %d to %d", st.DoneShards, resumedShards)
	}

	// Resuming a completed campaign is served from result.json.
	again, err := ResumeCtx(context.Background(), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("resume of a completed campaign did not report cached")
	}
	if got := marshal(t, again); string(got) != string(marshal(t, uninterrupted)) {
		t.Error("stored result diverges")
	}
}

func TestProfileCampaignResumeDeterministic(t *testing.T) {
	g := testGraph(t)
	spec := Spec{
		Kind: KindProfile, MinK: 1, MaxK: 5, Trials: 2000,
		ExhaustiveLimit: 500, Seed: 2006, ShardSize: 512,
	}

	uninterrupted, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := uninterrupted.Profile
	if p == nil {
		t.Fatal("no profile result")
	}
	// C(28,1)=28 and C(28,2)=378 are under the exhaustive limit.
	if !p.Exact[1] || !p.Exact[2] || p.Exact[3] {
		t.Errorf("exactness flags wrong: %v", p.Exact[:6])
	}
	if p.Fail[3].Trials != spec.Trials {
		t.Errorf("k=3 trials = %d, want %d", p.Fail[3].Trials, spec.Trials)
	}
	// The known weakness: exactly 8 of the C(28,2) pairs lose data.
	if p.Fail[2].Hits != 8 {
		t.Errorf("k=2 exact failures = %d, want 8", p.Fail[2].Hits)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunCtx(ctx, dir, g, spec, Options{
		Workers: 2,
		Progress: func(st Status) {
			if st.DoneShards >= 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	resumed, err := ResumeCtx(context.Background(), dir, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, resumed), marshal(t, uninterrupted); string(got) != string(want) {
		t.Errorf("resumed profile not bit-identical:\n got %s\nwant %s", got, want)
	}
}

func TestResultCache(t *testing.T) {
	g := testGraph(t)
	cache := t.TempDir()
	spec := Spec{Kind: KindWorstCase, MaxK: 2, MaxFailures: 16, ShardSize: 128}
	opts := Options{Workers: 2, CacheDir: cache}

	first, err := RunCtx(context.Background(), t.TempDir(), g, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first run reported cached")
	}

	// Second run: same graph + spec, even the same directory — the cache
	// answers before the directory is touched.
	var progressed bool
	opts2 := opts
	opts2.Progress = func(Status) { progressed = true }
	second, err := RunCtx(context.Background(), t.TempDir(), g, spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second run not served from cache")
	}
	if progressed {
		t.Error("cached run executed shards")
	}
	if got, want := marshal(t, second), marshal(t, first); string(got) != string(want) {
		t.Error("cached result diverges")
	}

	// A rewired graph must miss the cache and search again.
	rewired := g.Clone()
	rewired.RewireEdge(1, 16, 17) // move data node 1 between level-1 checks
	if CacheKey(rewired, spec) == CacheKey(g, spec) {
		t.Fatal("rewire did not change the cache key")
	}
	third, err := RunCtx(context.Background(), t.TempDir(), rewired, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("rewired graph served from cache")
	}
	if third.Fingerprint == first.Fingerprint {
		t.Error("fingerprint unchanged by rewire")
	}
}

func TestRunRefusesOccupiedDir(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	spec := Spec{Kind: KindWorstCase, MaxK: 1, ShardSize: 128}
	if _, err := RunCtx(context.Background(), dir, g, spec, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtx(context.Background(), dir, g, spec, Options{}); err == nil {
		t.Error("second Run into the same directory succeeded")
	}
}

func TestSpecValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := RunCtx(context.Background(), t.TempDir(), g, Spec{Kind: "bogus"}, Options{}); err == nil {
		t.Error("bogus kind accepted")
	}
	if _, err := RunCtx(context.Background(), t.TempDir(), nil, Spec{Kind: KindWorstCase}, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := RunCtx(context.Background(), "", g, Spec{Kind: KindWorstCase}, Options{}); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := ResumeCtx(context.Background(), t.TempDir(), Options{}); err == nil {
		t.Error("resume of an empty dir succeeded")
	}
}

func TestJournalSurvivesTruncatedTail(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindWorstCase, MaxK: 3, MaxFailures: 64, KeepGoing: true, ShardSize: 128}

	uninterrupted, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunCtx(ctx, dir, g, spec, Options{
		Workers: 2,
		Progress: func(st Status) {
			if st.DoneShards >= 4 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop the journal mid-line.
	jp := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeCtx(context.Background(), dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, resumed), marshal(t, uninterrupted); string(got) != string(want) {
		t.Error("resume after truncated journal diverges")
	}
}

func TestProgressMetrics(t *testing.T) {
	g := testGraph(t)
	reg := obs.NewRegistry()
	spec := Spec{Kind: KindWorstCase, MaxK: 3, MaxFailures: 8, KeepGoing: true, ShardSize: 128}
	if _, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	total := reg.Gauge(MetricShardsTotal).Value()
	done := reg.Gauge(MetricShardsDone).Value()
	if total == 0 || done != total {
		t.Errorf("shard gauges: done=%d total=%d", done, total)
	}
	if reg.Gauge(MetricWorkPerSec).Value() <= 0 {
		t.Errorf("work rate gauge not set")
	}
	if reg.Gauge(MetricETASeconds).Value() != 0 {
		t.Errorf("ETA nonzero after completion: %d", reg.Gauge(MetricETASeconds).Value())
	}
}

// TestLegacyKernelManifestResume: campaigns written while the scan kernel
// was a Spec field (PR 9–11) carry "kernel":"sliced" or "kernel":"scalar"
// in manifest.json. Such a directory must still load and resume — the
// field is ignored, the one scanner produces the same bytes either kernel
// did — nothing this build writes may carry the field, and the cache
// entries sliced campaigns stored must still be hits.
func TestLegacyKernelManifestResume(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindWorstCase, MaxK: 3, MaxFailures: 64, KeepGoing: true, ShardSize: 128}
	uninterrupted, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	for _, kernel := range []string{"sliced", "scalar"} {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		_, err = RunCtx(ctx, dir, g, spec, Options{
			Workers: 2,
			Progress: func(st Status) {
				if st.DoneShards >= 3 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run returned %v, want context.Canceled", err)
		}

		// Rewrite the manifest as the older build would have written it.
		path := filepath.Join(dir, manifestFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(`"kernel"`)) {
			t.Fatalf("this build wrote a kernel field into the manifest: %s", data)
		}
		legacy := bytes.Replace(data, []byte(`"shard_size"`), []byte(`"kernel":"`+kernel+`","shard_size"`), 1)
		if bytes.Equal(legacy, data) {
			t.Fatal("manifest has no shard_size field to anchor the legacy kernel field")
		}
		if err := os.WriteFile(path, legacy, 0o644); err != nil {
			t.Fatal(err)
		}

		resumed, err := ResumeCtx(context.Background(), dir, Options{Workers: 4})
		if err != nil {
			t.Fatalf("kernel %q: resuming a legacy manifest: %v", kernel, err)
		}
		if got, want := marshal(t, resumed), marshal(t, uninterrupted); string(got) != string(want) {
			t.Errorf("kernel %q: resumed legacy campaign not bit-identical:\n got %s\nwant %s", kernel, got, want)
		}
		if bytes.Contains(marshal(t, resumed), []byte(`"kernel"`)) {
			t.Errorf("kernel %q: result carries a kernel field", kernel)
		}
	}

	// A spec file of the same vintage decodes with the field dropped.
	var old Spec
	if err := json.Unmarshal([]byte(`{"kind":"worstcase","max_k":3,"kernel":"sliced"}`), &old); err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Kind: KindWorstCase, MaxK: 3}); old != want {
		t.Errorf("legacy spec JSON decoded to %+v, want %+v", old, want)
	}

	// Keys of sliced worst-case and of sampled campaigns, as commit 34981eb
	// computed them for tornado96-1: entries stored then are served now.
	g96, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		spec Spec
		key  string
	}{
		{Spec{Kind: KindWorstCase, MaxK: 3}, "9a924e2ac371b6b626be29c6b93e17fbb8e8e87514ca2aa7bc3d8c7199abd4b6"},
		{Spec{Kind: KindWorstCase, MaxK: 4, MaxFailures: 16, KeepGoing: true, ShardSize: 4096}, "ca58924b173b043f40778b94ec568b7e38d8f976f9fd78b8c09474ccfb460298"},
		{Spec{Kind: KindSampled, MaxK: 5, MinK: 5, Seed: 9}, "df2c8abb73bf207af3171010a9b0b32117538e87b12654f1d7b29fe8f8d9b6b5"},
	} {
		if got := CacheKey(g96, pin.spec); got != pin.key {
			t.Errorf("CacheKey(%+v) = %s, want the pre-existing %s", pin.spec, got, pin.key)
		}
	}
}
