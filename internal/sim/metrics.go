package sim

import (
	"sync/atomic"

	"tornado/internal/obs"
)

// Metric names published by the simulation workers. Counters are flushed at
// combination-chunk boundaries (every cancelCheckInterval iterations), so a
// multi-hour exhaustive search or Monte Carlo profile is observable while it
// runs — scrape Metrics().Snapshot() or serve obs.MergedHandler(Metrics()).
const (
	// MetricCombinationsTested counts erasure combinations examined by the
	// exhaustive worst-case scans.
	MetricCombinationsTested = "sim_combinations_tested"
	// MetricFailuresFound counts combinations that lost data during
	// exhaustive scans.
	MetricFailuresFound = "sim_failures_found"
	// MetricScanFallbacks counts exhaustive cardinalities handed to the rank
	// scan because their stopping sets cost more than their patterns.
	MetricScanFallbacks = "sim_scan_fallbacks"
	// MetricMCTrials counts Monte Carlo trials drawn: a sampled
	// certification's k-subsets, a profile's arrival orders.
	MetricMCTrials = "sim_mc_trials"
	// MetricMCFailures counts Monte Carlo trials that lost data; a profile
	// order counts when it loses data at its block's smallest point.
	MetricMCFailures = "sim_mc_failures"
)

// metricsReg holds the registry the workers publish to. A package-level
// default (rather than an option threaded through every call) keeps the
// hot-path signatures unchanged; tests swap it with SetMetrics.
var metricsReg atomic.Pointer[obs.Registry]

func init() { metricsReg.Store(obs.NewRegistry()) }

// Metrics returns the registry the simulation workers publish progress
// counters to.
func Metrics() *obs.Registry { return metricsReg.Load() }
