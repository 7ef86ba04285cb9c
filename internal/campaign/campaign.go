// Package campaign turns the paper's testing workloads — the exhaustive
// worst-case searches, Monte Carlo reconstruction-failure profiles and
// sampled certifications of §3 — into durable, resumable units of work.
// What is computed is internal/sim's: a campaign spec (graph + options)
// names a sim.Job, whose plan is one unit per exhaustive cardinality and
// fixed-size trial blocks each owning a seeded RNG stream for Monte Carlo
// points (a profile's blocks of arrival orders serve all its sampled points
// at once, after the worst-case search it folds in), and whose Run loop
// orders the groups, applies the stopping rules and folds the results. This
// package supplies the runner that loop calls: sim's LocalRunner, wrapped
// to skip the units ("shards") an earlier process journaled and to append
// each freshly computed one to a crash-safe JSONL journal. Because every
// unit is a pure function of its plan entry, a resumed campaign is
// bit-identical to an uninterrupted one — and to the in-memory sim call
// with the same options and block size.
//
// A content-addressed result cache keyed by graph.Fingerprint plus the
// normalized spec makes re-running an unchanged graph free: only rewired
// graphs (different fingerprint) pay for a new search, which is exactly the
// access pattern of adjust.Improve-style feedback loops.
//
// Progress is exported through internal/obs (shards done/total,
// combinations/sec, ETA) and, per completed shard, an optional callback.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/obs"
	"tornado/internal/sim"
	"tornado/internal/stats"
)

// Kind selects the workload a campaign runs.
type Kind string

const (
	// KindWorstCase is the exhaustive first-failure search
	// (sim.NewWorstCaseJob), one shard per cardinality; it returns what
	// sim.WorstCaseCtx does.
	KindWorstCase Kind = "worstcase"
	// KindProfile is the Monte Carlo reconstruction-failure profile with
	// the worst case folded in (sim.NewFoldedProfileJob).
	KindProfile Kind = "profile"
	// KindSampled is the archival-scale sampled certification
	// (sim.SampleStratifiedCtx): stratified Monte Carlo with a Wilson-CI
	// planned-precision stopping rule, for graphs whose erasure spaces
	// overflow the exhaustive rank arithmetic entirely.
	KindSampled Kind = "sampled"
)

// DefaultShardSize is the number of Monte Carlo trials per shard. Shards
// are the unit of checkpointing: small enough that a crash loses little
// work, large enough that journal writes are noise against decoding cost.
// It is sim's Monte Carlo block size, so a default campaign draws the
// blocks the in-memory call draws.
const DefaultShardSize = sim.DefaultSampledBlock

// Spec is the canonical description of a campaign's workload. Zero fields
// are filled with the internal/sim defaults; the normalized form is what is
// stored in the manifest and hashed (with the graph fingerprint) into the
// result cache key, so field order and zeroing discipline here define cache
// identity.
type Spec struct {
	Kind Kind `json:"kind"`

	// MaxK bounds the examined erasure cardinality (both kinds).
	MaxK int `json:"max_k,omitempty"`

	// Worst-case search fields (KindWorstCase).
	MaxFailures int  `json:"max_failures,omitempty"`
	KeepGoing   bool `json:"keep_going,omitempty"`

	// Monte Carlo fields (KindProfile and KindSampled). For KindSampled,
	// Trials is the per-cardinality trial budget the stopping rule may cut
	// short, and MaxFailures doubles as the witness cap.
	Trials int64  `json:"trials,omitempty"`
	MinK   int    `json:"min_k,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`

	// Epsilon is the sampled certification's planned-precision target
	// (KindSampled): sampling of a cardinality stops after the first block
	// at which the pooled 95% Wilson CI half-width is <= Epsilon.
	// Negative disables the rule (the full Trials budget runs).
	Epsilon float64 `json:"epsilon,omitempty"`

	// ShardSize overrides DefaultShardSize (KindProfile and KindSampled).
	// It is the trial block size of the Monte Carlo shards: shard b draws
	// trials [b·ShardSize, (b+1)·ShardSize) from RNG stream b, so it
	// participates in the computed result, not just the checkpoint layout.
	// An exhaustive cardinality is always one shard.
	ShardSize int64 `json:"shard_size,omitempty"`
}

// normalize fills defaults and zeroes the fields the kind does not use, so
// that equivalent specs are byte-identical after marshaling.
func (s Spec) normalize(total int) Spec {
	s.ShardSize = positiveOr(s.ShardSize, DefaultShardSize)
	switch s.Kind {
	case KindWorstCase:
		s.MaxK = min(positiveOr(s.MaxK, sim.DefaultMaxK), total)
		s.MaxFailures = positiveOr(s.MaxFailures, sim.DefaultMaxFailures)
		s.Trials, s.MinK, s.Seed = 0, 0, 0
		s.Epsilon, s.ShardSize = 0, 0
	case KindProfile:
		s.Trials = positiveOr(s.Trials, sim.DefaultProfileTrials)
		s.MinK = positiveOr(s.MinK, 1)
		s.MaxK = min(positiveOr(s.MaxK, total), total)
		s.MaxFailures, s.KeepGoing = 0, false
		s.Epsilon = 0
	case KindSampled:
		s.Trials = positiveOr(s.Trials, sim.DefaultSampledMaxTrials)
		if s.Epsilon == 0 {
			s.Epsilon = sim.DefaultSampledEpsilon
		}
		s.MinK = positiveOr(s.MinK, 1)
		s.MaxK = min(positiveOr(s.MaxK, sim.DefaultMaxK), total)
		s.MaxFailures = positiveOr(s.MaxFailures, sim.DefaultMaxFailures)
		s.KeepGoing = false
	}
	return s
}

// positiveOr returns v when positive, otherwise def.
func positiveOr[T int | int64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

func (s Spec) validate() error {
	switch s.Kind {
	case KindWorstCase, KindProfile, KindSampled:
	default:
		return fmt.Errorf("campaign: unknown kind %q (want %q, %q, or %q)", s.Kind, KindWorstCase, KindProfile, KindSampled)
	}
	return nil
}

// Options tunes campaign execution. Unlike Spec, nothing here affects the
// computed result — workers, metrics, and cache location can change between
// a run and its resume.
type Options struct {
	// Workers is the worker pool size; default GOMAXPROCS.
	Workers int
	// CacheDir enables the content-addressed result cache. Empty disables
	// caching.
	CacheDir string
	// Metrics receives the campaign progress gauges; default sim.Metrics(),
	// so one registry carries both the sim counters and the campaign
	// gauges.
	Metrics *obs.Registry
	// Progress, when set, is called after every completed shard with a
	// status snapshot. Called from worker goroutines, serialized.
	Progress func(Status)
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Metrics == nil {
		o.Metrics = sim.Metrics()
	}
	return o
}

// Campaign progress gauges, published to Options.Metrics.
const (
	MetricShardsTotal = "campaign_shards_total"
	MetricShardsDone  = "campaign_shards_done"
	MetricWorkPerSec  = "campaign_combinations_per_sec"
	MetricETASeconds  = "campaign_eta_seconds"
)

// Result is the outcome of a campaign: exactly one of WorstCase, Profile,
// or Sampled is set, matching Kind.
type Result struct {
	Kind        Kind                 `json:"kind"`
	Fingerprint string               `json:"fingerprint"`
	Spec        Spec                 `json:"spec"`
	WorstCase   *sim.WorstCaseResult `json:"worst_case,omitempty"`
	Profile     *sim.Profile         `json:"profile,omitempty"`
	// Sampled holds one sampled certification per cardinality in
	// MinK..MaxK, in ascending K order (KindSampled).
	Sampled []*sim.SampledResult `json:"sampled,omitempty"`
	// WorkDone counts combinations plus trials evaluated across all shards
	// that contributed to the result (journaled ones included).
	WorkDone int64 `json:"work_done"`
	// Cached reports that the result was served from the result cache (or
	// a completed campaign directory) without executing any shard. Not
	// stored.
	Cached bool `json:"-"`
}

// Status is a progress snapshot of a campaign directory.
type Status struct {
	Dir         string
	Kind        Kind
	Fingerprint string
	TotalShards int
	DoneShards  int
	WorkTotal   int64 // combinations + trials across all planned shards
	WorkDone    int64
	Completed   bool // result.json present
}

// job returns the sim.Job a normalized spec describes over g. A campaign
// must not start what it cannot finish, so a plan that ends short of the
// requested cardinalities is an error here, before anything is written.
func (s Spec) job(g *graph.Graph) (*sim.Job, error) {
	var j *sim.Job
	switch s.Kind {
	case KindWorstCase:
		j = sim.NewWorstCaseJob(g, sim.WorstCaseOptions{MaxK: s.MaxK, MaxFailures: s.MaxFailures, KeepGoing: s.KeepGoing})
	case KindProfile:
		j = sim.NewFoldedProfileJob(g, sim.ProfileOptions{Trials: s.Trials, MinK: s.MinK, MaxK: s.MaxK, Seed: s.Seed}, s.ShardSize)
	case KindSampled:
		j = sim.NewSampledJob(g, s.MinK, s.MaxK, sim.SampledOptions{
			Epsilon: s.Epsilon, MaxTrials: s.Trials, BlockSize: s.ShardSize, MaxWitnesses: s.MaxFailures, Seed: s.Seed,
		})
	default:
		return nil, s.validate()
	}
	if j.Err != nil {
		return nil, fmt.Errorf("campaign: %w", j.Err)
	}
	return j, nil
}

// toRecord is the journal line of unit u's result.
func toRecord(u sim.Unit, res sim.UnitResult) Record {
	rec := Record{Shard: u.ID, K: u.K, Failures: res.Failures, Screened: res.Screened, Thresholds: res.Thresholds}
	if u.Trials == 0 {
		rec.Tested, rec.FailCount = res.Tally.Trials, res.Tally.Hits
	} else {
		rec.Trials, rec.Hits = res.Tally.Trials, res.Tally.Hits
	}
	for _, p := range res.Strata {
		rec.StrataHits = append(rec.StrataHits, p.Hits)
		rec.StrataTrials = append(rec.StrataTrials, p.Trials)
	}
	return rec
}

// fromRecord reads a journal line back as unit u's result. A line counts
// only if it is the complete, well-formed result of the unit planned under
// its shard ID and nothing else — it must come back out of toRecord
// unchanged. Anything less (a stale plan, a torn write or a rotted byte
// that still parsed) is discarded like a torn tail and the unit reruns.
func fromRecord(j *sim.Job, u sim.Unit, rec Record) (sim.UnitResult, bool) {
	res := sim.UnitResult{Failures: rec.Failures, Screened: rec.Screened, Thresholds: rec.Thresholds}
	if u.Trials == 0 {
		res.Tally = stats.Proportion{Hits: rec.FailCount, Trials: rec.Tested}
	} else {
		res.Tally = stats.Proportion{Hits: rec.Hits, Trials: rec.Trials}
	}
	if len(rec.StrataHits) == len(rec.StrataTrials) {
		for i, hits := range rec.StrataHits {
			res.Strata = append(res.Strata, stats.Proportion{Hits: hits, Trials: rec.StrataTrials[i]})
		}
	}
	return res, j.Accepts(u, res) && reflect.DeepEqual(toRecord(u, res), rec)
}

// RunCtx starts a fresh campaign in dir and executes it to completion. The
// directory must not already hold a campaign (use ResumeCtx for that). If
// opts.CacheDir holds a result for the same graph fingerprint and
// normalized spec, it is returned immediately with Cached set and the
// directory is left untouched. On cancellation the journal retains every
// completed shard and RunCtx returns ctx's error; ResumeCtx picks up from
// there.
func RunCtx(ctx context.Context, dir string, g *graph.Graph, spec Spec, opts Options) (*Result, error) {
	if g == nil {
		return nil, errors.New("campaign: nil graph")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec = spec.normalize(g.Total)
	opts = opts.normalize()
	fp := g.Fingerprint()

	if opts.CacheDir != "" {
		if res, ok := loadCache(opts.CacheDir, cacheKey(fp, spec)); ok {
			res.Cached = true
			return res, nil
		}
	}

	if dir == "" {
		return nil, errors.New("campaign: empty campaign directory")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		return nil, fmt.Errorf("campaign: %s already holds a campaign; use Resume", dir)
	}
	job, err := spec.job(g)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := graphml.WriteFile(filepath.Join(dir, graphFile), g); err != nil {
		return nil, err
	}
	man := Manifest{
		Version:     manifestVersion,
		CreatedUnix: time.Now().Unix(),
		GraphName:   g.Name,
		Fingerprint: fp,
		Spec:        spec,
	}
	for _, grp := range job.Groups {
		man.TotalShards += len(grp)
		for _, u := range grp {
			man.TotalWork += job.Work(u)
		}
	}
	if err := writeJSONAtomic(filepath.Join(dir, manifestFile), man); err != nil {
		return nil, err
	}
	return execute(ctx, dir, g, man, job, nil, opts)
}

// ResumeCtx loads the campaign in dir, skips every journaled shard, runs
// the rest, and folds both into the final result — bit-identical to an
// uninterrupted run, because shards are deterministic and folded in plan
// order. Resuming a completed campaign returns the stored result with
// Cached set.
func ResumeCtx(ctx context.Context, dir string, opts Options) (*Result, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if res, err := decodeResultFile(filepath.Join(dir, resultFile)); err == nil {
		res.Cached = true
		return res, nil
	}
	opts = opts.normalize()
	g, err := graphml.ReadFile(filepath.Join(dir, graphFile))
	if err != nil {
		return nil, fmt.Errorf("campaign: loading campaign graph: %w", err)
	}
	if fp := g.Fingerprint(); fp != man.Fingerprint {
		return nil, fmt.Errorf("campaign: graph in %s fingerprints %s, manifest says %s", dir, fp, man.Fingerprint)
	}
	job, err := man.Spec.job(g)
	if err != nil {
		return nil, err
	}
	journaled, err := readJournal(dir)
	if err != nil {
		return nil, err
	}
	return execute(ctx, dir, g, man, job, journaled, opts)
}

// runner is the durable sim.Runner: the job's LocalRunner, which computes
// a unit, between a journal lookup and a journal append.
type runner struct {
	*sim.LocalRunner
	job   *sim.Job
	opts  Options
	jw    *journalWriter
	done  map[int]sim.UnitResult // journaled by an earlier process; read-only while the job runs
	start time.Time

	mu          sync.Mutex
	status      Status
	workThisRun int64
}

// RunUnit serves u from the journal, or computes it and journals it.
func (r *runner) RunUnit(ctx context.Context, w int, u sim.Unit) (sim.UnitResult, error) {
	if res, ok := r.done[u.ID]; ok {
		return res, nil
	}
	res, err := r.LocalRunner.RunUnit(ctx, w, u)
	if err == nil {
		err = r.jw.append(toRecord(u, res))
	}
	if err == nil {
		r.noteDone(u)
	}
	return res, err
}

// newRunner returns the durable runner of job: what journaled holds of the
// plan is served, not recomputed; everything else is appended to jw.
func newRunner(g *graph.Graph, job *sim.Job, journaled map[int]Record, jw *journalWriter, st Status, opts Options) *runner {
	r := &runner{
		LocalRunner: sim.NewLocalRunner(g, opts.Workers), job: job, opts: opts, jw: jw,
		done: map[int]sim.UnitResult{}, start: time.Now(), status: st,
	}
	for _, grp := range job.Groups {
		for _, u := range grp {
			rec, ok := journaled[u.ID]
			if !ok {
				continue
			}
			if res, ok := fromRecord(job, u, rec); ok {
				r.done[u.ID] = res
				r.status.DoneShards++
				r.status.WorkDone += job.Work(u)
			}
		}
	}
	return r
}

// execute runs the job over the durable runner — journaled holds what an
// earlier process left — then persists and caches the final result.
func execute(ctx context.Context, dir string, g *graph.Graph, man Manifest, job *sim.Job, journaled map[int]Record, opts Options) (*Result, error) {
	jw, err := openJournal(dir)
	if err != nil {
		return nil, err
	}
	defer jw.Close()

	r := newRunner(g, job, journaled, jw, man.status(dir), opts)
	opts.Metrics.Gauge(MetricShardsTotal).Set(int64(man.TotalShards))
	opts.Metrics.Gauge(MetricShardsDone).Set(int64(r.status.DoneShards))

	if err := job.Run(ctx, r); err != nil {
		return nil, err
	}
	res := &Result{
		Kind: man.Spec.Kind, Fingerprint: man.Fingerprint, Spec: man.Spec,
		WorstCase: job.WorstCase, Profile: job.Profile, Sampled: job.Sampled,
		WorkDone: job.Folded,
	}
	if err := writeJSONAtomic(filepath.Join(dir, resultFile), res); err != nil {
		return nil, err
	}
	if opts.CacheDir != "" {
		if err := storeCache(opts.CacheDir, cacheKey(man.Fingerprint, man.Spec), res); err != nil {
			return nil, fmt.Errorf("campaign: storing result cache: %w", err)
		}
	}
	r.status.Completed = true
	if opts.Progress != nil {
		opts.Progress(r.status)
	}
	return res, nil
}

// noteDone counts a freshly journaled shard and refreshes the progress
// gauges: shards done, evaluation rate over this process's lifetime, and
// the ETA implied by that rate and the remaining work.
func (r *runner) noteDone(u sim.Unit) {
	r.mu.Lock()
	defer r.mu.Unlock()
	work := r.job.Work(u)
	r.status.DoneShards++
	r.status.WorkDone += work
	r.workThisRun += work
	st := r.status

	m := r.opts.Metrics
	m.Gauge(MetricShardsDone).Set(int64(st.DoneShards))
	rate := float64(r.workThisRun) / time.Since(r.start).Seconds()
	if rate > 0 {
		if rate > 1e15 {
			rate = 1e15 // keep the int64 conversions defined for degenerate elapsed times
		}
		m.Gauge(MetricWorkPerSec).Set(int64(rate))
		m.Gauge(MetricETASeconds).Set(int64(float64(st.WorkTotal-st.WorkDone) / rate))
	}
	if r.opts.Progress != nil {
		r.opts.Progress(st) // under mu: callbacks observe monotone snapshots
	}
}

// ReadStatus reports the progress of the campaign in dir without running
// anything.
func ReadStatus(dir string) (Status, error) {
	man, err := readManifest(dir)
	if err != nil {
		return Status{}, err
	}
	st := man.status(dir)
	done, err := readJournal(dir)
	if err != nil {
		return st, err
	}
	for _, rec := range done {
		st.DoneShards++
		st.WorkDone += rec.Tested + rec.Trials
	}
	if _, err := os.Stat(filepath.Join(dir, resultFile)); err == nil {
		st.Completed = true
	}
	return st, nil
}
