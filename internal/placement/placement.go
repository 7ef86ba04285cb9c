// Package placement is the analysis library for maps of graph nodes onto
// device slots. It prices layouts; it does not deploy them. The archive's
// layout is the identity map — node v lives on device v — which
// scatters each check block's left neighbors across the shelf, so even the
// common single-loss repair reads most of its inputs from remote groups
// (drawers, shelves, racks: whatever boundary makes a read "expensive").
//
// Degree-aware placement co-locates each check block with its left
// neighbors: the cheapest repair of a lost block XORs one parity check
// with its surviving siblings, and when that whole family shares a group
// the repair is group-local. The single-loss cost model here quantifies
// the difference — mean blocks read per loss and mean *remote* blocks read
// per loss — and TestDegreeAwareReducesRemoteReads gates that the
// degree-aware layout reads fewer remote blocks than the identity layout
// on a generated cascade and on each shipped tornado96 graph. A store that
// wanted a permuted layout would remap devices in an archive.Backend
// wrapper.
package placement

import (
	"fmt"

	"tornado/internal/graph"
)

// DefaultGroupSize is the device-group granularity of the cost model: 12
// devices per group, matching the paper's RAID comparison hardware (8
// drawers of 12 disks for the 96-device system).
const DefaultGroupSize = 12

// Placement is a bijection between graph nodes and device slots.
// Implementations must be immutable after construction.
type Placement interface {
	// Nodes returns the node/device count.
	Nodes() int
	// Device returns the device slot storing node v's blocks.
	Device(v int) int
	// Node returns the graph node stored on device slot d.
	Node(d int) int
	// Name identifies the policy in reports.
	Name() string
}

// Identity is the default layout: node v on device v.
type Identity struct{ N int }

// NewIdentity returns the identity placement over n slots.
func NewIdentity(n int) Identity { return Identity{N: n} }

func (p Identity) Nodes() int       { return p.N }
func (p Identity) Device(v int) int { return v }
func (p Identity) Node(d int) int   { return d }
func (p Identity) Name() string     { return "identity" }

// Mapped is an explicit permutation placement.
type Mapped struct {
	name    string
	nodeDev []int
	devNode []int
}

// NewMapped builds a placement from nodeDev (nodeDev[v] = device of node
// v), validating that it is a permutation.
func NewMapped(name string, nodeDev []int) (*Mapped, error) {
	n := len(nodeDev)
	devNode := make([]int, n)
	seen := make([]bool, n)
	for v, d := range nodeDev {
		if d < 0 || d >= n || seen[d] {
			return nil, fmt.Errorf("placement: nodeDev is not a permutation (node %d -> device %d)", v, d)
		}
		seen[d] = true
		devNode[d] = v
	}
	return &Mapped{name: name, nodeDev: append([]int(nil), nodeDev...), devNode: devNode}, nil
}

func (p *Mapped) Nodes() int       { return len(p.nodeDev) }
func (p *Mapped) Device(v int) int { return p.nodeDev[v] }
func (p *Mapped) Node(d int) int   { return p.devNode[d] }
func (p *Mapped) Name() string     { return p.name }

// Group returns the group index of device slot d under groupSize-wide
// groups (non-positive sizes mean DefaultGroupSize).
func Group(d, groupSize int) int {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	return d / groupSize
}

// DegreeAware builds a placement for g that packs each check node with its
// left neighbors into one device group of groupSize slots, greedily and
// deterministically: check nodes are visited in ID order (low levels — the
// wide, shallow checks that repair data losses — first), each family
// {check} ∪ lefts(check) is routed to the group already holding most of
// its placed members, and unplaced members fill that group while it has
// room. Leftover nodes land in the remaining slots in ID order.
func DegreeAware(g *graph.Graph, groupSize int) *Mapped {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	n := g.Total
	numGroups := (n + groupSize - 1) / groupSize
	free := make([]int, numGroups) // free slots per group
	for gi := 0; gi < numGroups; gi++ {
		lo := gi * groupSize
		hi := min(lo+groupSize, n)
		free[gi] = hi - lo
	}
	nodeGroup := make([]int, n) // -1 while unplaced
	for v := range nodeGroup {
		nodeGroup[v] = -1
	}
	placedIn := make([]int, numGroups) // scratch: family members per group

	place := func(v, gi int) {
		nodeGroup[v] = gi
		free[gi]--
	}

	family := make([]int, 0, 16)
	for r := g.Data; r < n; r++ {
		family = family[:0]
		family = append(family, r)
		for _, l := range g.LeftNeighbors(r) {
			family = append(family, int(l))
		}
		// Route the family to the group that already holds most of it;
		// among groups with none placed, the one with the most room (then
		// lowest index) keeps families whole rather than fragmenting the
		// first groups.
		for gi := range placedIn {
			placedIn[gi] = 0
		}
		unplaced := 0
		for _, v := range family {
			if gi := nodeGroup[v]; gi >= 0 {
				placedIn[gi]++
			} else {
				unplaced++
			}
		}
		if unplaced == 0 {
			continue
		}
		best := -1
		for gi := 0; gi < numGroups; gi++ {
			if free[gi] == 0 {
				continue
			}
			if best < 0 {
				best = gi
				continue
			}
			switch {
			case placedIn[gi] > placedIn[best]:
				best = gi
			case placedIn[gi] == placedIn[best] && placedIn[best] == 0 && free[gi] > free[best]:
				best = gi
			}
		}
		if best < 0 {
			break // no free slot anywhere; remaining nodes handled below
		}
		for _, v := range family {
			if nodeGroup[v] >= 0 || free[best] == 0 {
				continue
			}
			place(v, best)
		}
	}
	// Fill stragglers (nodes in no family that found room) in ID order.
	next := 0
	for v := 0; v < n; v++ {
		if nodeGroup[v] >= 0 {
			continue
		}
		for free[next] == 0 {
			next++
		}
		place(v, next)
	}

	// Assign concrete slots: nodes of each group take that group's slot
	// range in node-ID order.
	nodeDev := make([]int, n)
	cursor := make([]int, numGroups)
	for gi := 0; gi < numGroups; gi++ {
		cursor[gi] = gi * groupSize
	}
	for v := 0; v < n; v++ {
		gi := nodeGroup[v]
		nodeDev[v] = cursor[gi]
		cursor[gi]++
	}
	p, err := NewMapped("degree-aware", nodeDev)
	if err != nil {
		panic("placement: degree-aware layout is not a permutation: " + err.Error())
	}
	return p
}

// LossStats is the single-loss repair cost of a placement under the cost
// model: lose one node, repair it by XORing the cheapest parity family,
// count the blocks read and how many live outside the lost node's group.
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

// repairOptions enumerates how one lost node can be rebuilt: for a right
// (check) node, recompute it from its left neighbors; for any node, XOR a
// parent check with that check's other left neighbors. The cheapest option
// — fewest remote reads, then fewest total reads — is the one a
// bandwidth-aware repair would pick.
func lossCost(g *graph.Graph, p Placement, groupSize, v int) (reads, remote int) {
	myGroup := Group(p.Device(v), groupSize)
	count := func(nodes []int) (int, int) {
		rd, rm := len(nodes), 0
		for _, u := range nodes {
			if Group(p.Device(u), groupSize) != myGroup {
				rm++
			}
		}
		return rd, rm
	}
	best := -1
	bestRemote := 0
	consider := func(nodes []int) {
		rd, rm := count(nodes)
		if best < 0 || rm < bestRemote || (rm == bestRemote && rd < best) {
			best, bestRemote = rd, rm
		}
	}
	var buf []int
	if g.IsRight(v) {
		buf = buf[:0]
		for _, l := range g.LeftNeighbors(v) {
			buf = append(buf, int(l))
		}
		consider(buf)
	}
	for _, r := range g.Parents(v) {
		buf = buf[:0]
		buf = append(buf, int(r))
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

// SingleLossStats evaluates p's single-loss repair cost over every node of
// g with groupSize-wide device groups.
func SingleLossStats(g *graph.Graph, p Placement, groupSize int) LossStats {
	var s LossStats
	var totReads, totRemote, dataReads, dataRemote int
	for v := 0; v < g.Total; v++ {
		rd, rm := lossCost(g, p, groupSize, v)
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
