package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tornado/internal/combin"
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
	spec := Spec{Kind: KindWorstCase, MaxK: 3, MaxFailures: 100000, KeepGoing: true}

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
	spec := Spec{Kind: KindWorstCase, MaxK: 4, MaxFailures: 8}
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
// a campaign mid-run (after three of its five cardinalities), resume it,
// and require the final result to be bit-identical (JSON bytes) to an
// uninterrupted run of the same spec.
func TestCrashResumeBitIdentical(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindWorstCase, MaxK: 5, MaxFailures: 64, KeepGoing: true}

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
		Seed: 2006, ShardSize: 512,
	}

	uninterrupted, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := uninterrupted.Profile
	if p == nil {
		t.Fatal("no profile result")
	}
	// The worst case to sim.DefaultMaxK is folded in: k = 1..5 are exact.
	for k := 1; k <= sim.DefaultMaxK; k++ {
		if c, _ := combin.BinomialInt64(g.Total, k); !p.Exact[k] || p.Fail[k].Trials != c {
			t.Errorf("k=%d: %+v (exact %v), want the search's count over C(%d,%d)", k, p.Fail[k], p.Exact[k], g.Total, k)
		}
	}
	// The known weakness: 8 of the C(28,2) pairs lose data.
	if p.Fail[2].Hits != 8 {
		t.Errorf("k=2: %d failing pairs, want 8", p.Fail[2].Hits)
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
	spec := Spec{Kind: KindWorstCase, MaxK: 2, MaxFailures: 16}
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
	spec := Spec{Kind: KindWorstCase, MaxK: 1}
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
	spec := Spec{Kind: KindWorstCase, MaxK: 6, MaxFailures: 64, KeepGoing: true}

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
	spec := Spec{Kind: KindWorstCase, MaxK: 3, MaxFailures: 8, KeepGoing: true}
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
// in a version-3 manifest, and so does every directory journaled in rank
// ranges. Such a directory must be refused with the version error rather
// than half-matched against the one-shard-per-cardinality plan; nothing
// this build writes carries the field, a spec file of that vintage still
// decodes, and the cache keys are pinned.
func TestLegacyKernelManifestResume(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindWorstCase, MaxK: 3, MaxFailures: 64, KeepGoing: true}
	dir, _ := interruptedJournal(t, g, spec, 2)

	path := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"kernel"`)) {
		t.Fatalf("this build wrote a kernel field into the manifest: %s", data)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man["version"] = 3
	man["spec"].(map[string]any)["kernel"] = "sliced"
	man["spec"].(map[string]any)["shard_size"] = 128
	if err := os.WriteFile(path, marshal(t, man), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeCtx(context.Background(), dir, Options{Workers: 2}); err == nil || !strings.Contains(err.Error(), "manifest version 3") {
		t.Errorf("resuming a version-3 directory returned %v, want the version error", err)
	}

	// A spec file of the same vintage decodes with the field dropped.
	var old Spec
	if err := json.Unmarshal([]byte(`{"kind":"worstcase","max_k":3,"kernel":"sliced"}`), &old); err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Kind: KindWorstCase, MaxK: 3}); old != want {
		t.Errorf("legacy spec JSON decoded to %+v, want %+v", old, want)
	}

	// Keys for tornado96-1. The worst-case keys changed when the shard size
	// and the legacy kernel field left the hashed spec. The sampled spec
	// hashes as it did at commit 34981eb, but under the order tag "st2",
	// so entries stored under "st1" — whose stopping rule looked only after
	// doubling rounds of blocks — miss; the "st1" key is pinned too.
	g96, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		spec Spec
		key  string
	}{
		{Spec{Kind: KindWorstCase, MaxK: 3}, "8fd098d0247d17dad6c78fb78a0488b8d4297255ecd143e9b9bae4fe0fb7e26f"},
		{Spec{Kind: KindWorstCase, MaxK: 4, MaxFailures: 16, KeepGoing: true, ShardSize: 4096}, "e49edf7fc04c9850d292d8a0a644d0855144c4af707a016105b75fb7b0eb1e90"},
		{Spec{Kind: KindSampled, MaxK: 5, MinK: 5, Seed: 9}, "9dfddb759989c1c439aee948ab544c007443c19f20cbd8b05a0eafc45812cc52"},
	} {
		if got := CacheKey(g96, pin.spec); got != pin.key {
			t.Errorf("CacheKey(%+v) = %s, want %s", pin.spec, got, pin.key)
		}
	}
	st1 := Spec{Kind: KindSampled, MaxK: 5, MinK: 5, Seed: 9}.normalize(g96.Total)
	if got, want := taggedCacheKey(g96.Fingerprint(), "st1", st1), "df2c8abb73bf207af3171010a9b0b32117538e87b12654f1d7b29fe8f8d9b6b5"; got != want {
		t.Errorf("the sampled spec under the retired tag st1 hashes to %s, want %s", got, want)
	}
}

// TestWorstCaseCampaignTornado96 runs the paper's search on the shipped
// graphs to k=6 as a campaign: it must equal WorstCaseCtx field by field,
// with the pinned k=6 counts, and a campaign interrupted after its k=3
// journal line must resume to the same bytes. Stopping sets answer every
// cardinality: no unit may fall back to the rank scan.
func TestWorstCaseCampaignTornado96(t *testing.T) {
	spec := Spec{Kind: KindWorstCase, MaxK: 6, KeepGoing: true}
	fallbacks := sim.Metrics().Counter(sim.MetricScanFallbacks)
	before := fallbacks.Value()
	for i, k6 := range []int64{1503, 4764, 13587} {
		g, err := graphml.ReadFile(fmt.Sprintf("../../precompiled/tornado96-%d.graphml", i+1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 6, KeepGoing: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*res.WorstCase, want) {
			t.Errorf("%s: campaign %+v, WorstCaseCtx %+v", g.Name, *res.WorstCase, want)
		}
		if got := res.WorstCase.FailureCountAt(6); got != k6 {
			t.Errorf("%s: %d failing 6-sets, want %d", g.Name, got, k6)
		}

		dir, journal := interruptedJournal(t, g, spec, 3)
		if n := bytes.Count(journal, []byte("\n")); n != 3 {
			t.Fatalf("%s: interrupted after %d journal lines, want 3", g.Name, n)
		}
		resumed, err := ResumeCtx(context.Background(), dir, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshal(t, resumed), marshal(t, res); !bytes.Equal(got, want) {
			t.Errorf("%s: resumed result not bit-identical:\n got %s\nwant %s", g.Name, got, want)
		}
	}
	if n := fallbacks.Value() - before; n != 0 {
		t.Errorf("%d cardinalities of the shipped graphs fell back to the rank scan, want 0", n)
	}
}
