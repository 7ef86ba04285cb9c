package combin

import "math/big"

// BinomialBig returns C(n, k) exactly. It returns 0 for k < 0 or k > n.
func BinomialBig(n, k int) *big.Int {
	if k < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// Rank returns the zero-based lexicographic rank of the combination idx
// among all k-combinations of {0,…,n-1}.
func Rank(idx []int, n int) int64 {
	k := len(idx)
	var rank int64
	prev := -1
	for i, v := range idx {
		for x := prev + 1; x < v; x++ {
			c, ok := BinomialInt64(n-x-1, k-i-1)
			if !ok {
				panic("combin: Rank overflow; use big-int path")
			}
			rank += c
		}
		prev = v
	}
	return rank
}
