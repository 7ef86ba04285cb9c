package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"tornado/internal/graph"
	"tornado/internal/sim"
)

// TestProfileCampaignMatchesSim: a profile campaign at the default shard
// size plans the very blocks sim.FailureProfileCtx draws, so the two agree
// exactly at any trial budget — also where the block size does not divide
// it (70,000 and 100,000).
func TestProfileCampaignMatchesSim(t *testing.T) {
	g := testGraph(t)
	for _, trials := range []int64{20000, 65536, 70000, 100000, 131072} {
		opts := sim.ProfileOptions{Trials: trials, MinK: 5, MaxK: 7, ExhaustiveLimit: 500, Seed: 2006}
		want, err := sim.FailureProfileCtx(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{Kind: KindProfile, Trials: trials, MinK: 5, MaxK: 7, ExhaustiveLimit: 500, Seed: 2006}
		res, err := RunCtx(context.Background(), t.TempDir(), g, spec, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Profile, want) {
			t.Errorf("trials=%d: campaign profile diverges from sim.FailureProfileCtx:\n got %+v\nwant %+v",
				trials, res.Profile.Fail[5:8], want.Fail[5:8])
		}
	}
	// Results stored under the even-split tiling must not be served.
	if orderVersion(Spec{Kind: KindProfile}) == scanOrderVersion {
		t.Error("profile cache entries still share the exhaustive order tag")
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
// the group's remaining shards first. The sampled plan's last round is 64
// blocks.
func TestUnitErrorCancelsItsGroup(t *testing.T) {
	g := testGraph(t)
	spec := Spec{Kind: KindSampled, MinK: 4, MaxK: 4, Trials: 127 * 64, ShardSize: 64, Seed: 17, Epsilon: -1}.normalize(g.Total)
	job, err := spec.job(g)
	if err != nil {
		t.Fatal(err)
	}
	last := job.Groups[len(job.Groups)-1]
	before := last[0].ID // units in the groups before the last
	if len(last) < 40 {
		t.Fatalf("last group has %d units; the test wants a long one", len(last))
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
	if got := len(job.Sampled[0].Rounds); got != len(job.Groups)-1 {
		t.Errorf("%d rounds folded, want the %d completed before the failing group", got, len(job.Groups)-1)
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
		{Kind: KindProfile, MinK: 2, MaxK: 4, Trials: 600, ExhaustiveLimit: 500, Seed: 3, ShardSize: 256},
		{Kind: KindSampled, MinK: 3, MaxK: 3, Trials: 2048, ShardSize: 512, Seed: 17, Epsilon: -1, MaxFailures: 2},
	}
	for i := range specs {
		specs[i] = specs[i].normalize(g.Total)
		_, journal := interruptedJournal(f, g, specs[i], 3)
		f.Add(journal)
		f.Add(journal[:len(journal)-9])
		f.Add(bytes.Replace(journal, []byte(`"strata_trials":[`), []byte(`"strata_trials":[7,`), 1))
		f.Add(bytes.Replace(journal, []byte(`"failures":[[`), []byte(`"failures":[[-1,`), 1))
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
