// Package stats provides the small statistical helpers used when reporting
// simulation results: Wilson score intervals for Monte Carlo failure
// fractions.
package stats

import (
	"fmt"
	"math"
)

// Proportion is a Monte Carlo success/failure tally.
type Proportion struct {
	Hits   int64 // number of "positive" observations (e.g. failed reconstructions)
	Trials int64
}

// Add records n additional observations of which hits were positive.
func (p *Proportion) Add(hits, n int64) {
	p.Hits += hits
	p.Trials += n
}

// Estimate returns the point estimate Hits/Trials, or 0 when no trials were
// recorded.
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Trials)
}

// Wilson returns the Wilson score interval for the proportion at the given
// z value (z=1.96 for a 95% interval). For zero trials it returns (0, 1).
func (p Proportion) Wilson(z float64) (lo, hi float64) {
	n := float64(p.Trials)
	if n == 0 {
		return 0, 1
	}
	phat := p.Estimate()
	z2 := z * z
	den := 1 + z2/n
	center := (phat + z2/(2*n)) / den
	half := z / den * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WilsonHalfWidth returns the half-width of the Wilson score interval at
// the given z value, before the [0,1] clamp — the precision measure used by
// planned-precision stopping rules ("sample until the 95% CI half-width
// <= eps"). For zero trials it returns 0.5, the half-width of the vacuous
// (0, 1) interval, so an empty tally never satisfies a sub-0.5 target.
func (p Proportion) WilsonHalfWidth(z float64) float64 {
	n := float64(p.Trials)
	if n == 0 {
		return 0.5
	}
	phat := p.Estimate()
	z2 := z * z
	den := 1 + z2/n
	return z / den * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
}

// Pool sums per-stratum tallies into a single proportion. When the strata
// partition trials drawn uniformly from one population (post-stratified
// tallies rather than separately designed strata), the pooled tally is the
// plain uniform estimator and Wilson intervals on it remain valid.
func Pool(parts ...Proportion) Proportion {
	var p Proportion
	for _, q := range parts {
		p.Add(q.Hits, q.Trials)
	}
	return p
}

// String formats the proportion with its 95% Wilson interval.
func (p Proportion) String() string {
	lo, hi := p.Wilson(1.96)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d/%d)", p.Estimate(), lo, hi, p.Hits, p.Trials)
}
