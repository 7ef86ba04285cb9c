// Package tornado reproduces "Fault Tolerance of Tornado Codes for Archival
// Storage" (Woitaszek & Tufo, HPDC 2006): construction of Tornado Code
// (cascaded LDPC) erasure graphs, exhaustive worst-case fault-tolerance
// analysis, Monte Carlo reconstruction-failure profiles, structural defect
// detection and feedback-based graph adjustment, RAID/mirroring baselines, a
// reliability model, a prototype archival object store with guided
// retrieval and scrubbing, and multi-graph federated storage.
//
// The package is a facade over the internal implementation packages; the
// types it exposes are aliases, so values flow freely between the
// high-level helpers here and any lower-level code.
//
// A typical session mirrors the paper's §3–§4 pipeline:
//
//	ctx := context.Background()
//	g, _, err := tornado.Generate(tornado.DefaultParams(), 2006)                  // construct + screen
//	g, reports, err := tornado.ImproveCtx(ctx, g, 4, tornado.AdjustOptions{}, 7) // raise first failure
//	wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: 5})   // certify
//	profile, err := tornado.ProfileCtx(ctx, g, tornado.ProfileOptions{Trials: 100000})
//	err = profile.AddExact(wc)                                          // certified points are exact
//	pfail := tornado.SystemFailure(g.Total, 0.01, profile.FailFraction) // Table 5 row
//
// # Context-first API convention
//
// Every long-running entry point takes a context as its first argument and
// has no context-less twin; a caller with nothing to cancel passes
// context.Background(). Cancellation and deadlines are honored promptly:
// worker loops check the context at combination-chunk boundaries, so a
// canceled search returns ctx.Err() instead of finishing a multi-minute
// run. Site clients, the federated store and the archive store follow the
// same rule. Every exported function here has a caller under cmd/,
// examples/ or bench/, or an Example.
package tornado

import (
	"context"
	"math/rand/v2"

	"tornado/internal/adjust"
	"tornado/internal/campaign"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/defect"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/reliability"
	"tornado/internal/sim"
)

// Core graph types.
type (
	// Graph is a cascaded bipartite LDPC erasure graph.
	Graph = graph.Graph
	// Level describes one cascade stage of a Graph.
	Level = graph.Level
	// Params configures Tornado graph generation (paper §3.1).
	Params = core.Params
	// GenStats reports generation effort (attempts, discards, rewires).
	GenStats = core.GenStats
)

// Analysis types.
type (
	// WorstCaseOptions tunes the exhaustive first-failure search (§3).
	WorstCaseOptions = sim.WorstCaseOptions
	// WorstCaseResult reports the search outcome.
	WorstCaseResult = sim.WorstCaseResult
	// KResult is the exhaustive examination of one erasure cardinality.
	KResult = sim.KResult
	// ProfileOptions tunes the failure-fraction profile (§3).
	ProfileOptions = sim.ProfileOptions
	// FailureProfile holds P(fail | k offline) for every k.
	FailureProfile = sim.Profile
	// AdjustOptions tunes the feedback adjustment loop (§3.3).
	AdjustOptions = adjust.Options
	// AdjustReport describes one cleared cardinality.
	AdjustReport = adjust.Report
	// Defect is a closed data-node set found by the structural scan (§3.2).
	Defect = defect.Finding
	// DecodeResult reports a structural decode (lost nodes on failure).
	DecodeResult = decode.Result
	// CertifyOptions tunes the archival-scale sampled certification.
	CertifyOptions = sim.SampledOptions
	// CertifyResult reports a sampled certification: pooled failure tally
	// with Wilson CI, collision-count strata, screening rate, and the
	// precision trajectory.
	CertifyResult = sim.SampledResult
)

// ErrEmptyWindow is returned by ProfileCtx and by profile and sampled
// campaigns whose offline-count window, once normalized, is empty (MinK
// above MaxK, or above the node count): they would measure nothing.
var ErrEmptyWindow = sim.ErrEmptyWindow

// DefaultParams returns the paper's 96-node construction parameters.
func DefaultParams() Params { return core.DefaultParams() }

// Generate constructs a defect-screened Tornado Code graph from a seed
// (paper §3.1–§3.2). The same seed always yields the same graph.
func Generate(p Params, seed uint64) (*Graph, GenStats, error) {
	return core.Generate(p, rand.New(rand.NewPCG(seed, 0)))
}

// GenerateUnscreened constructs a raw random Tornado graph without defect
// screening — the paper's §3.2 baseline.
func GenerateUnscreened(p Params, seed uint64) (*Graph, error) {
	return core.GenerateUnscreened(p, rand.New(rand.NewPCG(seed, 0)))
}

// ScanDefectsCtx finds closed data-node sets up to maxSize (paper §3.2)
// with workers scan workers (0 = GOMAXPROCS). Workers observe ctx every 1024
// search roots, so a canceled scan returns ctx.Err() promptly.
func ScanDefectsCtx(ctx context.Context, g *Graph, maxSize, workers int) ([]Defect, error) {
	return defect.ScanDataLevelCtx(ctx, g, maxSize, workers)
}

// CertifyCtx runs the archival-scale sampled certification of erasure
// cardinality k: stratified Monte Carlo where most patterns are resolved
// by structural proof (the generation-time defect screen's collision
// analysis) and only the unresolved tail is decoded, 64 patterns per pass
// through the bit-sliced kernel. Sampling stops once the pooled 95% Wilson
// CI half-width reaches opts.Epsilon. This is the certification path for
// graphs whose erasure spaces overflow exhaustive rank arithmetic
// (WorstCaseCtx at n=100,000 fails with a rank-overflow error pointing
// here). Cancellation is honored at combination-chunk boundaries inside
// every sampling worker.
func CertifyCtx(ctx context.Context, g *Graph, k int, opts CertifyOptions) (*CertifyResult, error) {
	return sim.SampleStratifiedCtx(ctx, g, k, opts)
}

// WorstCaseCtx runs the exhaustive combinatorial search for the graph's
// worst-case failure scenario (paper §3). Search workers observe ctx
// between chunks of work, and a canceled search returns ctx.Err() within
// one of them.
func WorstCaseCtx(ctx context.Context, g *Graph, opts WorstCaseOptions) (WorstCaseResult, error) {
	return sim.WorstCaseCtx(ctx, g, opts)
}

// ProfileCtx measures the fraction of failed reconstructions for each
// number of offline nodes (paper §3) by Monte Carlo sampling, with
// cancellation threaded through the sampling workers. Its points are all
// sampled; FailureProfile.AddExact folds in a worst-case search's exact
// counts.
func ProfileCtx(ctx context.Context, g *Graph, opts ProfileOptions) (*FailureProfile, error) {
	return sim.FailureProfileCtx(ctx, g, opts)
}

// NewDecoder returns a reusable structural peeling decoder for g; its
// Recoverable reports whether erasing a node set still allows full data
// reconstruction.
func NewDecoder(g *Graph) *decode.Decoder { return decode.New(g) }

// ImproveCtx repeatedly clears the first failing cardinality up to maxK,
// rewiring a copy of g by the paper's §3.3 feedback adjustment, and raises
// the graph's first-failure point as far as adjustment allows (screened
// graphs typically move from first failure 4 to 5). Cancellation is
// threaded through every worst-case search and adjustment round.
func ImproveCtx(ctx context.Context, g *Graph, maxK int, opts AdjustOptions, seed uint64) (*Graph, []AdjustReport, error) {
	return adjust.ImproveCtx(ctx, g, maxK, opts, rand.New(rand.NewPCG(seed, 1)))
}

// SystemFailure composes a conditional failure profile with independent
// device failures at the given annual failure rate — Equations (2)–(3) and
// Table 5.
func SystemFailure(devices int, afr float64, failGivenK func(k int) float64) float64 {
	return reliability.SystemFailure(devices, afr, failGivenK)
}

// SaveGraphML / LoadGraphML persist graphs in the paper's interchange
// format (§3: "the testing system stores graphs in the standardized
// GraphML format").

// SaveGraphML writes g to path as GraphML.
func SaveGraphML(path string, g *Graph) error { return graphml.WriteFile(path, g) }

// LoadGraphML reads a GraphML graph from path.
func LoadGraphML(path string) (*Graph, error) { return graphml.ReadFile(path) }

// Campaign types: durable, resumable experiment campaigns with sharded
// checkpointing and a fingerprint-keyed result cache (internal/campaign).
type (
	// CampaignSpec describes a campaign workload (kind + search options).
	CampaignSpec = campaign.Spec
	// CampaignOptions tunes campaign execution without affecting results.
	CampaignOptions = campaign.Options
	// CampaignResult is a campaign outcome (worst-case search or profile).
	CampaignResult = campaign.Result
	// CampaignStatus is a progress snapshot of a campaign directory.
	CampaignStatus = campaign.Status
	// CampaignKind selects the campaign workload.
	CampaignKind = campaign.Kind
)

// Campaign workload kinds.
const (
	CampaignWorstCase = campaign.KindWorstCase
	CampaignProfile   = campaign.KindProfile
	// CampaignSampled is the archival-scale sampled certification as a
	// durable campaign: per-block journaling, bit-identical resume, and the
	// Wilson-CI stopping rule evaluated after every block, in block order,
	// as CertifyCtx does.
	CampaignSampled = campaign.KindSampled
)

// RunCampaignCtx starts a fresh campaign in dir and executes it to
// completion, journaling every completed shard so an interrupted or
// canceled run can be resumed with ResumeCampaignCtx. Results for unchanged
// graphs are served from the opts.CacheDir result cache when set.
func RunCampaignCtx(ctx context.Context, dir string, g *Graph, spec CampaignSpec, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.RunCtx(ctx, dir, g, spec, opts)
}

// ResumeCampaignCtx continues an interrupted campaign to completion,
// skipping journaled shards; the merged result is bit-identical to an
// uninterrupted run.
func ResumeCampaignCtx(ctx context.Context, dir string, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.ResumeCtx(ctx, dir, opts)
}

// CampaignProgress reports the progress of the campaign in dir without
// running anything.
func CampaignProgress(dir string) (CampaignStatus, error) {
	return campaign.ReadStatus(dir)
}
