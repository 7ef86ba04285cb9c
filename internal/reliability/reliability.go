// Package reliability implements the paper's reliability analysis (§5.1,
// Equations (2) and (3), Table 5): device failures are independent with an
// annual failure rate p, so the number of offline drives is binomial, and
// the system failure probability composes the binomial weights with the
// measured (or analytic) conditional failure fractions:
//
//	P(fail) = Σ_k P(fail | k drives lost) · C(n,k) p^k (1−p)^(n−k)
package reliability

import (
	"math"

	"tornado/internal/combin"
)

// BinomialPMF returns Equation (2): the probability that exactly k of n
// independent drives with failure probability p are offline. It is
// evaluated in log space so large n and tiny p stay accurate.
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := combin.LogBinomial(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

// SystemFailure returns Equation (3): the probability of data loss for an
// n-drive system whose conditional failure profile is failGivenK, under
// independent per-drive failure probability afr with no repair.
func SystemFailure(n int, afr float64, failGivenK func(k int) float64) float64 {
	total := 0.0
	for k := 0; k <= n; k++ {
		f := failGivenK(k)
		if f == 0 {
			continue
		}
		total += f * BinomialPMF(n, k, afr)
	}
	return total
}
