package reliability

// DominantTerm returns the k whose contribution to SystemFailure is
// largest, with that contribution — the paper's observation that "the
// first failure provides the greatest contribution to the system failure
// rate" (§5.1).
func DominantTerm(n int, afr float64, failGivenK func(k int) float64) (k int, contribution float64) {
	for i := 0; i <= n; i++ {
		c := failGivenK(i) * BinomialPMF(n, i, afr)
		if c > contribution {
			k, contribution = i, c
		}
	}
	return k, contribution
}
