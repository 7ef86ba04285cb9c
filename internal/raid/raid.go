// Package raid models the parity/replication baselines the paper compares
// Tornado Codes against (§4.1, Table 5): striping, RAID5 and RAID6 drawer
// configurations (8 drawers × 12 disks), and mirroring. Each scheme gets an
// exact analytic P(fail | k drives offline); mirroring and RAID5 are also
// expressible as XOR parity graphs, which the paper uses to validate its
// simulator against Equation (1) "to at least 9 significant digits".
package raid

import (
	"fmt"

	"tornado/internal/combin"
	"tornado/internal/graph"
)

// GroupToleranceFailGivenK returns the exact probability that k uniformly
// random offline drives lose data in a system of groups × perGroup drives
// where each group tolerates up to tol losses:
//
//	P(fail | k) = 1 − #{k-subsets with ≤ tol per group} / C(groups·perGroup, k)
//
// Mirroring is groups=n, perGroup=2, tol=1 (this is Equation (1) in closed
// form); RAID5 drawers are tol=1 over 12 disks; RAID6 tol=2; striping tol=0.
func GroupToleranceFailGivenK(groups, perGroup, tol, k int) float64 {
	n := groups * perGroup
	if k < 0 || k > n {
		panic(fmt.Sprintf("raid: k=%d out of range for %d drives", k, n))
	}
	if k == 0 {
		return 0
	}
	// DP over groups: ways[d] = number of ways to place d failed drives so
	// far with ≤ tol per group. Values fit float64 comfortably for the
	// paper's 96-drive systems (max C(96,48) ≈ 6.4e27).
	ways := make([]float64, k+1)
	ways[0] = 1
	for g := 0; g < groups; g++ {
		next := make([]float64, k+1)
		for d := 0; d <= k; d++ {
			if ways[d] == 0 {
				continue
			}
			for i := 0; i <= tol && i <= perGroup && d+i <= k; i++ {
				next[d+i] += ways[d] * combin.Binomial(perGroup, i)
			}
		}
		ways = next
	}
	p := 1 - ways[k]/combin.Binomial(n, k)
	// The DP and the closed-form binomial round differently; clamp the
	// residual (≈1e-16) so callers always see a probability.
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// MirroredFailGivenK is Equation (1): the probability that k offline drives
// in an n-pair mirrored array cause data loss.
func MirroredFailGivenK(pairs, k int) float64 {
	return GroupToleranceFailGivenK(pairs, 2, 1, k)
}

// RAID5FailGivenK returns P(fail | k) for drawers of disksPerLUN drives
// each protected by single parity.
func RAID5FailGivenK(luns, disksPerLUN, k int) float64 {
	return GroupToleranceFailGivenK(luns, disksPerLUN, 1, k)
}

// RAID6FailGivenK returns P(fail | k) for drawers of disksPerLUN drives
// each protected by dual parity.
func RAID6FailGivenK(luns, disksPerLUN, k int) float64 {
	return GroupToleranceFailGivenK(luns, disksPerLUN, 2, k)
}

// StripingFailGivenK returns P(fail | k) for plain striping: any loss is
// fatal.
func StripingFailGivenK(n, k int) float64 {
	return GroupToleranceFailGivenK(1, n, 0, min(k, n))
}

// MirroredGraph expresses an n-pair mirrored system as a parity graph (a
// degree-1 check per data node), the validation graph of paper §3: its
// simulated profile must equal Equation (1).
func MirroredGraph(pairs int) *graph.Graph {
	b := graph.NewBuilder(pairs)
	r := b.AddLevel(0, pairs, pairs)
	g := b.Graph()
	for i := 0; i < pairs; i++ {
		g.SetNeighbors(r+i, []int{i})
	}
	g.Name = fmt.Sprintf("mirrored-%d", 2*pairs)
	return g
}
