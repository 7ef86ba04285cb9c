package tornado

import (
	"context"
	"math/rand/v2"

	"tornado/internal/lec"
	"tornado/internal/maid"
	"tornado/internal/reliability"
	"tornado/internal/sim"
	"tornado/internal/workload"
)

// Extension types: the paper's §5.2/§6 future-work features, implemented.
type (
	// OverheadOptions tunes the reconstruction-overhead measurement.
	OverheadOptions = sim.OverheadOptions
	// OverheadResult is the minimum-retrieval-count distribution.
	OverheadResult = sim.OverheadResult
	// StripeJob is one stripe awaiting scheduled reconstruction.
	StripeJob = maid.StripeJob
	// ScheduledJob is a stripe with its planned blocks and spin-up cost.
	ScheduledJob = maid.ScheduledJob
	// WorkloadSpec configures a synthetic archival workload.
	WorkloadSpec = workload.Spec
	// WorkloadOp is one generated operation.
	WorkloadOp = workload.Op
	// WorkloadResult aggregates a workload run.
	WorkloadResult = workload.Result
	// LECOptions tunes the LEC-style candidate search.
	LECOptions = lec.Options
	// LECSearchStats reports the LEC candidate search.
	LECSearchStats = lec.SearchStats
	// LifetimeOptions tunes the discrete-event lifetime simulation.
	LifetimeOptions = sim.LifetimeOptions
	// LifetimeResult summarizes simulated times to data loss.
	LifetimeResult = sim.LifetimeResult
)

// Workload size distributions and op kinds.
const (
	SizeFixed     = workload.SizeFixed
	SizeUniform   = workload.SizeUniform
	SizeLogNormal = workload.SizeLogNormal
	OpPut         = workload.OpPut
	OpGet         = workload.OpGet
	OpFail        = workload.OpFail
	OpRepair      = workload.OpRepair
)

// MeasureOverhead measures the reconstruction overhead of g: the
// distribution of the minimum number of randomly ordered blocks needed to
// reconstruct (the Plank-style metric the paper defers to future work,
// §5.2).
func MeasureOverhead(g *Graph, opts OverheadOptions) (OverheadResult, error) {
	return sim.OverheadCtx(context.Background(), g, opts)
}

// MeasureOverheadCtx is MeasureOverhead with cancellation, checked between
// sampled retrieval orders.
func MeasureOverheadCtx(ctx context.Context, g *Graph, opts OverheadOptions) (OverheadResult, error) {
	return sim.OverheadCtx(ctx, g, opts)
}

// MTTDL computes the mean time to data loss under a birth–death repair
// model (the with-repair extension of Table 5). lambda and mu are failure
// and per-repairman rebuild rates in the same time unit; failGivenK is the
// measured or analytic conditional failure profile.
func MTTDL(devices int, lambda, mu float64, repairmen int, failGivenK func(k int) float64) (float64, error) {
	return reliability.MTTDL(devices, lambda, mu, repairmen, failGivenK)
}

// AnnualLossProbability converts an MTTDL in years to a one-year loss
// probability.
func AnnualLossProbability(mttdlYears float64) float64 {
	return reliability.AnnualLossProbability(mttdlYears)
}

// SimulateLifetime runs the discrete-event ground truth of MTTDL: the
// actual graph under exponential per-device failures and a bounded repair
// crew, event by event, until the real decoder reports data loss.
func SimulateLifetime(g *Graph, opts LifetimeOptions) (LifetimeResult, error) {
	return sim.SimulateLifetimeCtx(context.Background(), g, opts)
}

// SimulateLifetimeCtx is SimulateLifetime with cancellation, checked
// between simulated lifetimes.
func SimulateLifetimeCtx(ctx context.Context, g *Graph, opts LifetimeOptions) (LifetimeResult, error) {
	return sim.SimulateLifetimeCtx(ctx, g, opts)
}

// AnnualLossMonteCarlo estimates the one-year loss probability by direct
// simulation (the end-to-end check of the Table 5 composition).
func AnnualLossMonteCarlo(g *Graph, afr float64, trials int64, seed uint64) (float64, error) {
	p, err := sim.AnnualLossMonteCarlo(context.Background(), g, afr, trials, seed, 0)
	if err != nil {
		return 0, err
	}
	return p.Estimate(), nil
}

// ScheduleReconstruction orders multiple stripe retrievals on a
// power-budgeted MAID shelf to minimize spin-ups (§6's stateful
// multi-stripe environment). It returns the schedule and total spin-up
// estimate.
func ScheduleReconstruction(g *Graph, jobs []StripeJob, initialHot []int, budget int) ([]ScheduledJob, int, error) {
	return maid.Schedule(g, jobs, initialHot, budget)
}

// ScheduleArrivalOrder is the unoptimized baseline for
// ScheduleReconstruction.
func ScheduleArrivalOrder(g *Graph, jobs []StripeJob, initialHot []int, budget int) ([]ScheduledJob, int, error) {
	return maid.ScheduleArrivalOrder(g, jobs, initialHot, budget)
}

// RunWorkload executes a synthetic archival workload against a store,
// verifying every retrieved payload.
func RunWorkload(store *Archive, devices DeviceArray, spec WorkloadSpec) (WorkloadResult, error) {
	return workload.Run(store, devices, spec)
}

// GenerateLEC draws and scores LEC-style single-level candidates and
// returns the best — the alternative family the paper marks as future
// work (§2.1).
func GenerateLEC(data, checks int, opts LECOptions, seed uint64) (*Graph, LECSearchStats, error) {
	return lec.Generate(data, checks, opts, rand.New(rand.NewPCG(seed, 3)))
}
