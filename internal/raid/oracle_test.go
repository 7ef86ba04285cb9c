package raid

import (
	"math"

	"tornado/internal/combin"
)

// MirroredDeadPairsPMF is the summand form of Equation (1): the
// probability that exactly j mirror pairs are completely dead when k of
// the 2n drives are offline,
//
//	P(j | k) = C(n,j) · C(n−j, k−2j) · 2^(k−2j) / C(2n,k).
//
// Summing j ≥ 1 recovers MirroredFailGivenK; j = 0 is the survival term.
func MirroredDeadPairsPMF(pairs, k, j int) float64 {
	if j < 0 || 2*j > k || k-2*j > pairs-j {
		return 0
	}
	n := pairs
	num := combin.Binomial(n, j) * combin.Binomial(n-j, k-2*j) * math.Pow(2, float64(k-2*j))
	return num / combin.Binomial(2*n, k)
}
