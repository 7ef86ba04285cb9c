// Package dist implements the edge-degree distributions used to construct
// Tornado Code graphs and the numeric solver from paper §3.1.
//
// Following Luby, distributions are expressed in terms of *edge* degrees:
// Weights[i] is the fraction of graph edges attached to nodes of degree
// MinDegree+i. For small graphs the raw distribution frequently suggests
// nonsensical fragments such as "5 edges of degree 6" (an edge of degree 6
// must attach to a node owning 6 edges), so the paper's generator solves for
// a constant multiplier that scales the distribution until the implied node
// counts total exactly the number of nodes required. Solve implements that
// multiplier search by bisection over the (monotone, integer-valued) node
// count function.
package dist

import (
	"fmt"
	"math"
)

// Dist is an edge-perspective degree distribution: Weights[i] is the
// fraction of edges attached to nodes of degree MinDegree+i. Weights need
// not be normalized; all consumers work with relative weights.
type Dist struct {
	MinDegree int
	Weights   []float64
}

// HeavyTail returns Luby's heavy-tail left distribution truncated at
// parameter D: edge degrees 2..D+1 with weight λ_i ∝ 1/(i−1).
func HeavyTail(D int) Dist {
	if D < 1 {
		panic("dist: HeavyTail requires D >= 1")
	}
	w := make([]float64, D)
	for i := range w {
		deg := i + 2
		w[i] = 1 / float64(deg-1)
	}
	return Dist{MinDegree: 2, Weights: w}
}

// PoissonRight returns the truncated Poisson-shaped right distribution with
// shape parameter alpha over degrees 1..maxDeg: ρ_i ∝ α^(i−1)/(i−1)!.
func PoissonRight(alpha float64, maxDeg int) Dist {
	if maxDeg < 1 || alpha <= 0 {
		panic("dist: PoissonRight requires maxDeg >= 1 and alpha > 0")
	}
	w := make([]float64, maxDeg)
	term := 1.0
	for i := range w {
		w[i] = term
		term *= alpha / float64(i+1)
	}
	return Dist{MinDegree: 1, Weights: w}
}

// Uniform returns a single-degree distribution (all nodes of degree deg),
// used for the fixed-degree cascaded graphs of paper §4.3.
func Uniform(deg int) Dist {
	if deg < 1 {
		panic("dist: Uniform requires deg >= 1")
	}
	return Dist{MinDegree: deg, Weights: []float64{1}}
}

// Shifted returns a copy of d with every degree increased by delta (the
// paper's "distribution shifted +1 edge" alteration, §4.3).
func (d Dist) Shifted(delta int) Dist {
	if d.MinDegree+delta < 1 {
		panic("dist: Shifted would produce degree < 1")
	}
	return Dist{MinDegree: d.MinDegree + delta, Weights: append([]float64(nil), d.Weights...)}
}

// Doubled returns a copy of d with every degree doubled (the paper's
// "distribution doubled" alteration, §4.3).
func (d Dist) Doubled() Dist {
	w := make([]float64, 2*(d.MinDegree+len(d.Weights)-1)-2*d.MinDegree+1)
	for i, v := range d.Weights {
		w[2*i] = v
	}
	return Dist{MinDegree: 2 * d.MinDegree, Weights: w}
}

// MaxDegree returns the largest degree carried by the distribution.
func (d Dist) MaxDegree() int { return d.MinDegree + len(d.Weights) - 1 }

// nodeCounts returns the per-degree node counts implied by scaling the
// distribution by multiplier c: count_i = round(c·λ_i/i).
func (d Dist) nodeCounts(c float64) []int {
	out := make([]int, len(d.Weights))
	for i, v := range d.Weights {
		deg := float64(d.MinDegree + i)
		out[i] = int(math.Floor(c*v/deg + 0.5))
	}
	return out
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Solution is the output of Solve: how many nodes of each degree to create.
type Solution struct {
	MinDegree int
	Counts    []int // Counts[i] nodes of degree MinDegree+i
	Nodes     int   // Σ Counts
	Edges     int   // Σ (MinDegree+i)·Counts[i]
}

// Degrees expands the solution into one degree per node, in ascending
// order. The caller typically shuffles the slice.
func (s Solution) Degrees() []int {
	out := make([]int, 0, s.Nodes)
	for i, c := range s.Counts {
		for j := 0; j < c; j++ {
			out = append(out, s.MinDegree+i)
		}
	}
	return out
}

// Solve finds a constant multiplier for the edge-degree distribution that
// produces exactly nodes total nodes (paper §3.1). Because the node-count
// function is an integer step function of the multiplier, an exact
// crossing may not exist; any shortfall after bisection is filled with
// extra nodes of the smallest degree (and any overshoot trimmed from the
// largest populated degree), which perturbs the distribution minimally.
func Solve(d Dist, nodes int) (Solution, error) {
	if nodes < 1 {
		return Solution{}, fmt.Errorf("dist: Solve needs nodes >= 1, got %d", nodes)
	}
	anyPositive := false
	for _, w := range d.Weights {
		if w < 0 {
			return Solution{}, fmt.Errorf("dist: negative weight %v", w)
		}
		if w > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		return Solution{}, fmt.Errorf("dist: all-zero distribution")
	}

	// Bracket: counts(c) is nondecreasing, 0 at c=0.
	lo, hi := 0.0, 1.0
	for sum(d.nodeCounts(hi)) < nodes {
		hi *= 2
		if hi > 1e18 {
			return Solution{}, fmt.Errorf("dist: solver failed to bracket %d nodes", nodes)
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-9*hi; iter++ {
		mid := (lo + hi) / 2
		if sum(d.nodeCounts(mid)) < nodes {
			lo = mid
		} else {
			hi = mid
		}
	}
	counts := d.nodeCounts(hi)
	got := sum(counts)

	// Fix any residual rounding mismatch.
	for got < nodes {
		counts[0]++ // add a node of the smallest degree
		got++
	}
	for got > nodes {
		// Trim from the largest populated degree bucket.
		for i := len(counts) - 1; i >= 0; i-- {
			if counts[i] > 0 {
				counts[i]--
				got--
				break
			}
		}
	}

	sol := Solution{MinDegree: d.MinDegree, Counts: counts, Nodes: nodes}
	for i, c := range counts {
		sol.Edges += (d.MinDegree + i) * c
	}
	if sol.Edges == 0 {
		return Solution{}, fmt.Errorf("dist: solution carries no edges")
	}
	return sol, nil
}

// SolveEdgesMax produces per-node degrees for exactly nodes nodes whose
// total degree equals edges, following the shape of d as closely as
// possible, with no node above maxDeg. This is used for the right side of a
// level: after left degrees fix the edge total, the right node degrees must
// sum to the same total, and a check node cannot reference more distinct
// left nodes than its level holds. The solution from Solve is adjusted by
// ±1 steps spread across nodes.
func SolveEdgesMax(d Dist, nodes, edges, maxDeg int) (Solution, error) {
	if edges < nodes {
		return Solution{}, fmt.Errorf("dist: %d edges cannot cover %d nodes at degree >= 1", edges, nodes)
	}
	if edges > nodes*maxDeg {
		return Solution{}, fmt.Errorf("dist: %d edges exceed %d nodes at degree <= %d", edges, nodes, maxDeg)
	}
	sol, err := Solve(d, nodes)
	if err != nil {
		return Solution{}, err
	}
	degs := sol.Degrees()
	total := 0
	for i := range degs {
		if degs[i] > maxDeg {
			degs[i] = maxDeg
		}
		total += degs[i]
	}
	// Spread the correction: raise/lower node degrees round-robin, keeping
	// every degree within [1, maxDeg].
	i := 0
	for steps := 0; total != edges; steps++ {
		j := i % len(degs)
		if total < edges {
			if degs[j] < maxDeg {
				degs[j]++
				total++
			}
		} else if degs[j] > 1 {
			degs[j]--
			total--
		}
		i++
		if steps > 1000000 {
			return Solution{}, fmt.Errorf("dist: SolveEdgesMax failed to converge (nodes=%d edges=%d)", nodes, edges)
		}
	}
	// Re-bucket into a Solution.
	minDeg, maxDeg := degs[0], degs[0]
	for _, v := range degs {
		if v < minDeg {
			minDeg = v
		}
		if v > maxDeg {
			maxDeg = v
		}
	}
	out := Solution{MinDegree: minDeg, Counts: make([]int, maxDeg-minDeg+1), Nodes: nodes, Edges: edges}
	for _, v := range degs {
		out.Counts[v-minDeg]++
	}
	return out, nil
}
