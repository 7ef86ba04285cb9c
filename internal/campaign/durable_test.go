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
	"sync/atomic"
	"testing"

	"tornado/internal/graph"
	"tornado/internal/sim"
)

// TestProfileCampaignMatchesSim: a profile campaign at the default shard
// size plans the very blocks sim.FailureProfileCtx draws, after the
// worst-case search sim.WorstCaseCtx runs with KeepGoing, so it agrees
// exactly with that profile with the search folded in (AddExact) at any
// trial budget — also where the block size does not divide it (70,000 and
// 100,000).
func TestProfileCampaignMatchesSim(t *testing.T) {
	g := testGraph(t)
	for _, trials := range []int64{20000, 65536, 70000, 100000, 131072} {
		spec := Spec{Kind: KindProfile, Trials: trials, MinK: 5, MaxK: 7, Seed: 2006}
		want := foldedProfile(t, g, spec)
		res, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Profile, want) {
			t.Errorf("trials=%d: campaign profile diverges from sim.FailureProfileCtx + AddExact:\n got %+v\nwant %+v",
				trials, res.Profile.Fail[:8], want.Fail[:8])
		}
	}
	// Results stored under the even-split tiling must not be served.
	if orderVersion(Spec{Kind: KindProfile}) == scanOrderVersion {
		t.Error("profile cache entries still share the exhaustive order tag")
	}
}

// foldedProfile is what a profile campaign of spec over g must return: the
// in-memory profile with the KeepGoing worst case to sim.DefaultMaxK
// folded in.
func foldedProfile(t testing.TB, g *graph.Graph, spec Spec) *sim.Profile {
	t.Helper()
	ctx := context.Background()
	p, err := sim.FailureProfileCtx(ctx, g, sim.ProfileOptions{Trials: spec.Trials, MinK: spec.MinK, MaxK: spec.MaxK, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := sim.WorstCaseCtx(ctx, g, sim.WorstCaseOptions{KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddExact(wc); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProfileCampaignResumesInsideTheSearch: a profile campaign cancelled
// while its worst-case shards run — its journal holds exhaustive shards
// only — resumes to the profile it would have returned uninterrupted,
// sim.FailureProfileCtx's with the search folded in.
func TestProfileCampaignResumesInsideTheSearch(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindProfile, MinK: 2, MaxK: 9, Trials: 3000, Seed: 5}
	dir, journal := interruptedJournal(t, g, spec, 2)
	if bytes.Contains(journal, []byte(`"thresholds"`)) || !bytes.Contains(journal, []byte(`"tested"`)) {
		t.Fatalf("the interruption did not fall inside the worst-case shards:\n%.400s", journal)
	}
	res, err := ResumeCtx(context.Background(), dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := foldedProfile(t, g, spec); !reflect.DeepEqual(res.Profile, want) {
		t.Errorf("resumed profile\n got %+v\nwant %+v", res.Profile.Fail[:10], want.Fail[:10])
	}
}

// interruptedJournal runs spec until stopAfter shards are journaled and
// returns the campaign directory and its journal.
func interruptedJournal(t testing.TB, g *graph.Graph, spec Spec, stopAfter int) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunCtx(ctx, dir, g, spec, Options{Workers: 1, Progress: func(st Status) {
		if st.DoneShards >= stopAfter {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data
}

var sampledResumeSpec = Spec{
	Kind: KindSampled, MinK: 4, MaxK: 4,
	Trials: 16384, ShardSize: 1024, Seed: 17, Epsilon: -1, MaxFailures: 4,
}

// TestResumeDiscardsMalformedRecords: a journal line that parses but is
// not the well-formed result of its shard — a bit-rotted strata array, a
// witness naming a node the graph does not have, tallies that do not add
// up — is discarded like a torn tail and the shard reruns; none may panic
// the resume or reach the fold.
func TestResumeDiscardsMalformedRecords(t *testing.T) {
	g := testGraph(t)
	want, err := RunCtx(context.Background(), t.TempDir(), g, sampledResumeSpec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for name, rot := range map[string]func(*Record){
		"strata_trials longer than K+1": func(r *Record) { r.StrataTrials = append(r.StrataTrials, 0, 0, 0) },
		"strata_trials shorter":         func(r *Record) { r.StrataTrials = r.StrataTrials[:2] },
		"strata do not sum to trials":   func(r *Record) { r.StrataTrials[1]++ },
		"hits disagree with strata":     func(r *Record) { r.Hits++ },
		"witness out of range":          func(r *Record) { r.Failures = [][]int{{1, 2, 3, g.Total}} },
		"witness of the wrong size":     func(r *Record) { r.Failures = [][]int{{1, 2, 3}} },
		"witness not ascending":         func(r *Record) { r.Failures = [][]int{{3, 2, 1, 0}} },
		"more witnesses than hits":      func(r *Record) { r.Hits, r.StrataHits = 0, make([]int64, len(r.StrataHits)) },
		"another cardinality's record":  func(r *Record) { r.K++ },
		"exhaustive fields on a block":  func(r *Record) { r.Tested = r.Trials },
	} {
		dir, data := interruptedJournal(t, g, sampledResumeSpec, 6)
		lines := bytes.SplitAfter(data, []byte("\n"))
		var rec Record
		if err := json.Unmarshal(lines[2], &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Failures) == 0 {
			t.Fatalf("fixture block %d has no witness to rot", rec.Shard)
		}
		rot(&rec)
		lines[2] = append(marshal(t, rec), '\n')
		if err := os.WriteFile(filepath.Join(dir, journalFile), bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}

		var rerun int
		got, err := ResumeCtx(context.Background(), dir, Options{Workers: 2, Progress: func(st Status) {
			if !st.Completed {
				rerun++
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(marshal(t, got)) != string(marshal(t, want)) {
			t.Errorf("%s: resumed result differs from the uninterrupted run", name)
		}
		if planned := 16; rerun != planned-(len(lines)-1)+1 {
			t.Errorf("%s: resume ran %d shards over a journal of %d lines, one of them rotted", name, rerun, len(lines)-1)
		}
	}
}

// TestResumeDiscardsMalformedProfileRecords: a profile order shard's
// journaled histogram must be its shard's — one entry per point it answers
// plus one, nonnegative counts summing to the shard's orders and ending in
// its hits — or the line is discarded and the shard reruns.
func TestResumeDiscardsMalformedProfileRecords(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindProfile, MinK: 3, MaxK: 9, Trials: 3000, Seed: 5, ShardSize: 256}
	want, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, rot := range map[string]func(*Record){
		"histogram sums past trials":   func(r *Record) { r.Thresholds[1]++ },
		"histogram sums short":         func(r *Record) { r.Thresholds[len(r.Thresholds)-2]-- },
		"histogram one entry short":    func(r *Record) { r.Thresholds = r.Thresholds[1:] },
		"histogram one entry long":     func(r *Record) { r.Thresholds = append([]int64{0}, r.Thresholds...) },
		"negative count":               func(r *Record) { r.Thresholds[0], r.Thresholds[1] = -1, r.Thresholds[1]+r.Thresholds[0]+1 },
		"hits disagree with histogram": func(r *Record) { r.Hits++ },
		"no histogram":                 func(r *Record) { r.Thresholds = nil },
		"exhaustive fields":            func(r *Record) { r.Trials, r.Hits, r.Tested, r.FailCount = 0, 0, r.Trials, r.Hits },
	} {
		// The worst-case search's shards come first, one per cardinality.
		dir, data := interruptedJournal(t, g, spec, sim.DefaultMaxK+4)
		lines := bytes.SplitAfter(data, []byte("\n"))
		var rec Record
		if err := json.Unmarshal(lines[sim.DefaultMaxK+3], &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Thresholds) != 9-3+2 || rec.Thresholds[0] == 0 || rec.Hits == 0 {
			t.Fatalf("fixture shard %d is not a profile order shard with orders at both ends: %+v", rec.Shard, rec)
		}
		rot(&rec)
		lines[sim.DefaultMaxK+3] = append(marshal(t, rec), '\n')
		if err := os.WriteFile(filepath.Join(dir, journalFile), bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		var rerun int
		got, err := ResumeCtx(context.Background(), dir, Options{Workers: 2, Progress: func(st Status) {
			if !st.Completed {
				rerun++
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(marshal(t, got)) != string(marshal(t, want)) {
			t.Errorf("%s: resumed result differs from the uninterrupted run", name)
		}
		// k = 3..9 share 12 order shards, after the search's 5. Every
		// unjournaled shard plus the rotted one reruns.
		if planned := sim.DefaultMaxK + 12; rerun != planned-(len(lines)-1)+1 {
			t.Errorf("%s: resume ran %d shards over a journal of %d lines, one of them rotted", name, rerun, len(lines)-1)
		}
	}
}

// TestProfileSearchShardsJournalNoSets: the worst-case shards a profile
// campaign journals first carry counts only — the profile reads nothing
// else. On TestResumeDiscardsMalformedProfileRecords' fixture the k = 4
// shard counts failing 4-sets and lists none of them.
func TestProfileSearchShardsJournalNoSets(t *testing.T) {
	spec := Spec{Kind: KindProfile, MinK: 3, MaxK: 9, Trials: 3000, Seed: 5, ShardSize: 256}
	_, data := interruptedJournal(t, testGraph(t), spec, sim.DefaultMaxK+4)
	lines := bytes.SplitAfter(data, []byte("\n"))
	for _, line := range lines[:sim.DefaultMaxK] {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Trials != 0 || rec.Tested == 0 || len(rec.Failures) != 0 || rec.K == 4 && rec.FailCount == 0 {
			t.Errorf("search shard %d: k=%d, %d of %d patterns fail, %d failing sets journaled; want an exhaustive count with no sets (failures at k=4)",
				rec.Shard, rec.K, rec.FailCount, rec.Tested, len(rec.Failures))
		}
	}
}

// TestOldProfileCampaignsAreRefused: a profile campaign directory of the
// per-cardinality sampler (manifest version 4), of the plan that
// enumerated the points with C(n,k) ≤ 100,000 (version 5, its spec holding
// an exhaustive_limit), or of the order shards with no worst case before
// them (version 6), is refused with an error that names the version and
// the way out, and a profile result cached under any of their tags ("pb1",
// "pa1", "pa2") misses: it is another tally.
func TestOldProfileCampaignsAreRefused(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindProfile, MinK: 3, MaxK: 9, Trials: 3000, Seed: 5, ShardSize: 256}
	for _, version := range []int{4, 5, 6} {
		dir, _ := interruptedJournal(t, g, spec, 2)
		setManifest(t, dir, func(man map[string]any) {
			man["version"] = version
			man["spec"].(map[string]any)["exhaustive_limit"] = 500
		})
		want := fmt.Sprintf("manifest version %d", version)
		_, err := ResumeCtx(context.Background(), dir, Options{Workers: 2})
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "new directory") {
			t.Errorf("resuming a version-%d profile directory returned %v, want the version error", version, err)
		}
		if _, err := ReadStatus(dir); err == nil {
			t.Errorf("status of a version-%d directory read without error", version)
		}
	}

	cache := t.TempDir()
	norm := spec.normalize(g.Total)
	stale := &Result{Kind: KindProfile, Fingerprint: g.Fingerprint(), Spec: norm, Profile: &sim.Profile{GraphName: "stale"}}
	for _, tag := range []string{"pb1", "pa1", "pa2"} {
		if err := storeCache(cache, taggedCacheKey(g.Fingerprint(), tag, norm), stale); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 2, CacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.Profile.GraphName == "stale" {
		t.Error("a profile cached under a retired tag was served")
	}
}

// TestWorstCaseAndSampledIdentityKept: the profile's plan changed, the
// other kinds' did not. Their specs never stored an exhaustive limit, so
// they hash as they did (pinned) — the sampled kind under its retired order
// tag "st1", its current tag "st2" giving another key — and a version-5 or
// version-6 worst-case directory still resumes to the fresh run's result.
func TestWorstCaseAndSampledIdentityKept(t *testing.T) {
	g := testGraph(t)
	wc := Spec{Kind: KindWorstCase, MaxK: 4, KeepGoing: true}
	sampled := Spec{Kind: KindSampled, MinK: 3, MaxK: 4, Seed: 17, Epsilon: 1e-3}
	for _, c := range []struct {
		spec Spec
		tag  string
		key  string
	}{
		{wc, scanOrderVersion, "69f989e3e24e7e3f42cd5cd0458e38fdd8bb1e52a1ce195f4215bf5b82f62b60"},
		{sampled, "st1", "ba9e5581ddc3195ec7f7485167a651202aa818aae043512e3b84c9ac69d484b4"},
		{sampled, scanOrderVersionSampled, "6b5f24922521fefba264302382bc34cc87063785746c3657aa176258e015b1f9"},
	} {
		if got := taggedCacheKey(g.Fingerprint(), c.tag, c.spec.normalize(g.Total)); got != c.key {
			t.Errorf("%s under %q: cache key %s, pinned %s", c.spec.Kind, c.tag, got, c.key)
		}
	}
	if CacheKey(g, wc) != taggedCacheKey(g.Fingerprint(), scanOrderVersion, wc.normalize(g.Total)) ||
		CacheKey(g, sampled) != taggedCacheKey(g.Fingerprint(), "st2", sampled.normalize(g.Total)) {
		t.Error("CacheKey does not hash under the kinds' current order tags")
	}
	want, err := RunCtx(context.Background(), t.TempDir(), g, wc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{5, 6} {
		dir, _ := interruptedJournal(t, g, wc, 2)
		setManifest(t, dir, func(man map[string]any) { man["version"] = version })
		got, err := ResumeCtx(context.Background(), dir, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, got), marshal(t, want)) {
			t.Errorf("resumed version-%d worst case differs from the fresh run", version)
		}
	}
}

// setManifest rewrites the manifest in dir through edit.
func setManifest(t *testing.T, dir string, edit func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	edit(man)
	if err := os.WriteFile(path, marshal(t, man), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyWindowRefusedBeforeManifest: a profile or sampled campaign whose
// normalized window holds no cardinality fails with sim.ErrEmptyWindow and
// leaves nothing behind — no manifest, so no campaign to resume.
func TestEmptyWindowRefusedBeforeManifest(t *testing.T) {
	g := testGraph(t)
	for _, spec := range []Spec{
		{Kind: KindProfile, MinK: 20, MaxK: 10, Trials: 1000},
		{Kind: KindProfile, MinK: 29, Trials: 1000},
		{Kind: KindSampled, MinK: 6, MaxK: 5, Trials: 1000},
	} {
		dir := filepath.Join(t.TempDir(), "camp")
		res, err := RunCtx(context.Background(), dir, g, spec, Options{Workers: 1})
		if !errors.Is(err, sim.ErrEmptyWindow) {
			t.Errorf("%+v: %v, %v; want sim.ErrEmptyWindow", spec, res, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%+v: the refused campaign left %s behind (%v)", spec, dir, err)
		}
	}
}

// flakyFile is a journal file whose failAt-th write fails, once.
type flakyFile struct {
	*os.File
	writes atomic.Int32
	failAt int32
}

var errFlaky = errors.New("injected journal write failure")

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.writes.Add(1) == f.failAt {
		return 0, errFlaky
	}
	return f.File.Write(p)
}

// TestUnitErrorCancelsItsGroup: the first unit error of a group — here the
// journal refusing one append — cancels the group's remaining units and is
// what Run returns: the other workers do not go on to compute and journal
// the group's remaining shards first. The sampled plan's group is its
// cardinality's 127 blocks; what was folded before the error is a run of
// the first blocks, each journaled.
func TestUnitErrorCancelsItsGroup(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindSampled, MinK: 4, MaxK: 4, Trials: 127 * 64, ShardSize: 64, Seed: 17, Epsilon: -1}.normalize(g.Total)
	job, err := spec.job(g)
	if err != nil {
		t.Fatal(err)
	}
	last := job.Groups[len(job.Groups)-1]
	before := last[0].ID // units in the groups before the last
	if len(job.Groups) != 1 || len(last) != 127 {
		t.Fatalf("plan has %d groups, the last of %d units; the test wants one long one", len(job.Groups), len(last))
	}

	f, err := os.Create(filepath.Join(t.TempDir(), journalFile))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyFile{File: f, failAt: int32(before + 5)} // five units into the last group
	opts := Options{Workers: 4}.normalize()
	r := newRunner(g, job, nil, &journalWriter{f: flaky}, Status{}, opts)
	defer r.jw.Close()

	if err := job.Run(context.Background(), r); !errors.Is(err, errFlaky) {
		t.Fatalf("Run returned %v, want the journal's error", err)
	}
	// Each of the other workers may finish the unit it had in hand.
	if got, most := int(flaky.writes.Load()), before+5+opts.Workers-1; got > most {
		t.Errorf("%d journal appends after the group's first error; want at most %d of %d", got, most, before+len(last))
	}
	folded := job.Sampled[0].Rounds
	if len(folded) >= int(flaky.writes.Load()) {
		t.Errorf("%d blocks folded, more than the %d appends that succeeded", len(folded), flaky.writes.Load()-1)
	}
	for i, r := range folded {
		if r.Trials != int64(i+1)*64 {
			t.Errorf("fold %d after %d trials, want the first %d blocks", i, r.Trials, i+1)
		}
	}
}

// nopFile is a journal that keeps nothing.
type nopFile struct{}

func (nopFile) Write(p []byte) (int, error) { return len(p), nil }
func (nopFile) Sync() error                 { return nil }
func (nopFile) Close() error                { return nil }

// FuzzJournalResume feeds arbitrary bytes through the resume path of one
// campaign of each kind — readJournal, the match of every line against the
// plan, the job's run and fold over what was accepted plus what had to be
// recomputed. Nothing may panic or fail, and every accepted line must
// marshal back to itself: what the fold sees is what the journal says.
func FuzzJournalResume(f *testing.F) {
	g := testGraph(f)
	specs := []Spec{
		{Kind: KindWorstCase, MaxK: 4, MaxFailures: 4, KeepGoing: true},
		{Kind: KindProfile, MinK: 2, MaxK: 4, Trials: 1000, Seed: 3, ShardSize: 256},
		{Kind: KindSampled, MinK: 3, MaxK: 3, Trials: 2048, ShardSize: 512, Seed: 17, Epsilon: -1, MaxFailures: 2},
	}
	for i := range specs {
		specs[i] = specs[i].normalize(g.Total)
		stop := 3
		if specs[i].Kind == KindProfile {
			stop += sim.DefaultMaxK // past the worst-case shards, into the order shards
		}
		_, journal := interruptedJournal(f, g, specs[i], stop)
		f.Add(journal)
		f.Add(journal[:len(journal)-9])
		f.Add(bytes.Replace(journal, []byte(`"strata_trials":[`), []byte(`"strata_trials":[7,`), 1))
		f.Add(bytes.Replace(journal, []byte(`"failures":[[`), []byte(`"failures":[[-1,`), 1))
		f.Add(bytes.Replace(journal, []byte(`"thresholds":[`), []byte(`"thresholds":[7,`), 1))
	}
	f.Add([]byte(`{"shard":0,"k":1,"tested":28}` + "\n" + `{"shard":1,"k":2,"tested":128,"fail_count":-3}` + "\nnull\n[]\n{"))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, journal []byte) {
		if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		journaled, err := readJournal(dir)
		if err != nil {
			t.Skip(err) // a line beyond the scanner's buffer: reported, not resumed
		}
		for _, spec := range specs {
			job, err := spec.job(g)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(g, job, journaled, &journalWriter{f: nopFile{}}, Status{}, Options{Workers: 1}.normalize())
			for _, grp := range job.Groups {
				for _, u := range grp {
					res, ok := r.done[u.ID]
					if !ok {
						continue
					}
					if got, want := marshal(t, toRecord(u, res)), marshal(t, journaled[u.ID]); !bytes.Equal(got, want) {
						t.Errorf("%s: accepted line %s reads back as %s", spec.Kind, want, got)
					}
				}
			}
			if err := job.Run(context.Background(), r); err != nil {
				t.Fatalf("%s: resume over a fuzzed journal: %v", spec.Kind, err)
			}
		}
	})
}
