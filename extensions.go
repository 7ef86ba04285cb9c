package tornado

import (
	"context"

	"tornado/internal/maid"
	"tornado/internal/reliability"
	"tornado/internal/sim"
	"tornado/internal/workload"
)

// Extension types: the paper's §5.2/§6 future-work features, implemented.
type (
	// StripeJob is one stripe awaiting scheduled reconstruction.
	StripeJob = maid.StripeJob
	// ScheduledJob is a stripe with its planned blocks and spin-up cost.
	ScheduledJob = maid.ScheduledJob
	// WorkloadSpec configures a synthetic archival workload.
	WorkloadSpec = workload.Spec
	// WorkloadResult aggregates a workload run.
	WorkloadResult = workload.Result
	// LifetimeOptions tunes the discrete-event lifetime simulation.
	LifetimeOptions = sim.LifetimeOptions
	// LifetimeResult summarizes simulated times to data loss.
	LifetimeResult = sim.LifetimeResult
)

// Workload size distributions.
const (
	SizeFixed     = workload.SizeFixed
	SizeUniform   = workload.SizeUniform
	SizeLogNormal = workload.SizeLogNormal
)

// MTTDL computes the mean time to data loss under a birth–death repair
// model (the with-repair extension of Table 5). lambda and mu are failure
// and per-repairman rebuild rates in the same time unit; failGivenK is the
// measured or analytic conditional failure profile.
func MTTDL(devices int, lambda, mu float64, repairmen int, failGivenK func(k int) float64) (float64, error) {
	return reliability.MTTDL(devices, lambda, mu, repairmen, failGivenK)
}

// SimulateLifetimeCtx runs the discrete-event ground truth of MTTDL: the
// actual graph under exponential per-device failures and a bounded repair
// crew, event by event, until the real decoder reports data loss.
// Cancellation is checked between simulated lifetimes.
func SimulateLifetimeCtx(ctx context.Context, g *Graph, opts LifetimeOptions) (LifetimeResult, error) {
	return sim.SimulateLifetimeCtx(ctx, g, opts)
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
