package repairbw

import "tornado/internal/graph"

// LossStats is the modeled single-loss repair cost of the archive's layout
// — node v on device v, devices in groups of groupSize (drawers, shelves,
// racks: whatever boundary makes a read "expensive"): lose one node,
// repair it by XORing the cheapest parity family, count the blocks read
// and how many live outside the lost node's group. The Meter measures what
// repairs move; this prices what one repair must move.
type LossStats struct {
	// MeanRepairReads is blocks read per single loss, averaged over every
	// node (the repair-bandwidth figure: repair bytes per lost byte, in
	// units of block size).
	MeanRepairReads float64
	// MeanRemoteReads is the subset of those reads served from outside the
	// lost node's device group.
	MeanRemoteReads float64
	// MaxRepairReads is the worst single-loss read count.
	MaxRepairReads int
	// DataMeanRepairReads / DataMeanRemoteReads restrict the average to
	// data-node losses (the loss a degraded Get must repair inline).
	DataMeanRepairReads float64
	DataMeanRemoteReads float64
}

// lossCost prices the cheapest way to rebuild lost node v: for a right
// (check) node, recompute it from its left neighbors; for any node, XOR a
// parent check with that check's other left neighbors. The cheapest option
// — fewest remote reads, then fewest total reads — is the one a
// bandwidth-aware repair would pick.
func lossCost(g *graph.Graph, groupSize, v int) (reads, remote int) {
	best, bestRemote := -1, 0
	consider := func(nodes []int) {
		rm := 0
		for _, u := range nodes {
			if u/groupSize != v/groupSize {
				rm++
			}
		}
		if best < 0 || rm < bestRemote || (rm == bestRemote && len(nodes) < best) {
			best, bestRemote = len(nodes), rm
		}
	}
	var buf []int
	if g.IsRight(v) {
		for _, l := range g.LeftNeighbors(v) {
			buf = append(buf, int(l))
		}
		consider(buf)
	}
	for _, r := range g.Parents(v) {
		buf = append(buf[:0], int(r))
		for _, l := range g.LeftNeighbors(int(r)) {
			if int(l) != v {
				buf = append(buf, int(l))
			}
		}
		consider(buf)
	}
	if best < 0 {
		return 0, 0 // uncovered node (cannot happen on a valid graph)
	}
	return best, bestRemote
}

// SingleLossStats evaluates the single-loss repair cost over every node of
// g with groupSize-wide device groups (groupSize > 0).
func SingleLossStats(g *graph.Graph, groupSize int) LossStats {
	var s LossStats
	var totReads, totRemote, dataReads, dataRemote int
	for v := 0; v < g.Total; v++ {
		rd, rm := lossCost(g, groupSize, v)
		totReads += rd
		totRemote += rm
		if rd > s.MaxRepairReads {
			s.MaxRepairReads = rd
		}
		if g.IsData(v) {
			dataReads += rd
			dataRemote += rm
		}
	}
	s.MeanRepairReads = float64(totReads) / float64(g.Total)
	s.MeanRemoteReads = float64(totRemote) / float64(g.Total)
	if g.Data > 0 {
		s.DataMeanRepairReads = float64(dataReads) / float64(g.Data)
		s.DataMeanRemoteReads = float64(dataRemote) / float64(g.Data)
	}
	return s
}
