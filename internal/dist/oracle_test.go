package dist

// AvgNodeDegree returns the average node degree implied by the edge-degree
// distribution: Σλ_i / Σ(λ_i/i).
func (d Dist) AvgNodeDegree() float64 {
	var sw, swi float64
	for i, v := range d.Weights {
		deg := float64(d.MinDegree + i)
		sw += v
		swi += v / deg
	}
	if swi == 0 {
		return 0
	}
	return sw / swi
}
