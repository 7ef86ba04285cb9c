// Package retrieval implements the guided block-selection the paper plans
// as future work (§5.2, §6): given which devices are reachable and a cost
// for touching each one (e.g. spun-down MAID drives cost a spin-up), choose
// a small, cheap set of blocks that still reconstructs the stripe, instead
// of naively reading everything.
//
// Plan uses reverse-delete: start from every available node and greedily
// drop the most expensive ones while the stripe stays decodable. The result
// is minimal (no single element can be removed), though not always
// globally minimum — matching the paper's framing of guided search as a
// heuristic optimization.
//
// The hot entry point is Planner: it keeps a decode.Kernel and every buffer
// across calls, so planning a stripe in the archive read path allocates
// nothing in the steady state. Each candidate costs at most one
// EraseOne+Eval probe, an array peel of the current erasure; a stripe whose
// data blocks are all readable at no more than any check's price costs one
// scan and no kernel call. PlanEconomic also keeps its last answer with the
// price vector it came from, and returns it again for an equal vector: the
// stripes of one read see the same devices at the same prices, so a
// degraded read plans once, not once per stripe. Known names blocks the
// caller holds without reading — a short stripe's zero padding — which every
// plan counts as present and none lists. The package-level Plan is the
// one-shot convenience wrapper.
package retrieval

import (
	"errors"
	"math"
	"slices"

	"tornado/internal/decode"
	"tornado/internal/graph"
)

// ErrInsufficient is returned when even the full available set cannot
// reconstruct the data.
var ErrInsufficient = errors.New("retrieval: available blocks cannot reconstruct the stripe")

// CostFunc prices reading the block on node ID v. Return +Inf to forbid a
// node entirely.
type CostFunc func(v int) float64

// UnitCost charges 1 per block — minimizing the number of devices accessed.
func UnitCost(int) float64 { return 1 }

// Planner plans retrievals over one graph, reusing a decode kernel and all
// working buffers between calls. Not safe for concurrent
// use; create one per goroutine (they may not share kernels).
type Planner struct {
	g      *graph.Graph
	k      *decode.Kernel
	cands  []int
	costs  []float64 // the current call's prices: cost(v), or +Inf where v is unavailable
	inPlan []bool    // candidate survives reverse-delete
	orphan []bool    // no ancestor check is left in the plan (see rebuildable)
	erased []int     // every node this call erased, for unwinding
	plan   []int
	alt    []int  // PlanEconomic's answer: its best-so-far while it runs
	known  []bool // borrowed from Known, or none: one entry per node
	none   []bool // the known mask naming no node
	floor  int    // the current call's data nodes not known: a plan's fewest blocks

	// PlanEconomic's last answer (alt, lastCost) and the prices and known
	// mask it answered. The answer is a function of the two alone, so equal
	// ones get it back; lastOK is false until there is one, and after an
	// error.
	lastPrices []float64
	lastKnown  []bool
	lastCost   PlanCost
	lastOK     bool
}

// NewPlanner returns a Planner for g.
func NewPlanner(g *graph.Graph) *Planner {
	p := &Planner{
		g:          g,
		k:          decode.NewKernel(decode.NewCSR(g)),
		cands:      make([]int, 0, g.Total),
		costs:      make([]float64, g.Total),
		inPlan:     make([]bool, g.Total),
		orphan:     make([]bool, g.Total),
		erased:     make([]int, 0, g.Total),
		plan:       make([]int, 0, g.Total),
		alt:        make([]int, 0, g.Total),
		lastPrices: make([]float64, g.Total),
		lastKnown:  make([]bool, g.Total),
	}
	p.none = make([]bool, g.Total)
	p.known = p.none
	return p
}

// Known names the nodes whose blocks the caller holds without reading them —
// the data nodes past a short stripe's payload, which the encoder filled with
// zeros. Every later plan counts them as present at no cost, whatever the
// availability vector says: it never lists them to read and never drops
// them, and its data floor (PlanCost.Surplus) is the data nodes not known.
// known has one entry per node and is borrowed, not copied, until the next
// Known; nil (the default) names none.
func (p *Planner) Known(known []bool) {
	if known == nil {
		known = p.none
	}
	p.known = known[:p.g.Total]
}

// ordering selects the reverse-delete drop order. Every ordering yields a
// minimal (irreducible) plan; they differ in which minimal plan they land
// on when costs are non-uniform.
type ordering int

const (
	// orderCostDeep drops most-expensive first, deep check nodes first
	// among equals — the cost-greedy default.
	orderCostDeep ordering = iota
	// orderCostShallow drops most-expensive first, shallow nodes first
	// among equals.
	orderCostShallow
	// orderDeep ignores cost entirely and drops the deepest nodes first,
	// chasing the smallest block count (fewest repair bytes).
	orderDeep
)

// Plan selects a subset of the available nodes whose blocks reconstruct
// all data, minimizing total cost greedily. available[v] reports whether
// node v's block is retrievable at all. The returned slice is reused by
// the next Plan call — callers that keep it must copy.
func (p *Planner) Plan(available []bool, cost CostFunc) ([]int, float64, error) {
	if err := p.price(available, cost); err != nil {
		return nil, 0, err
	}
	return p.planOrdered(orderCostDeep)
}

// price fills p.costs, calling cost once per available node not known (a
// known node costs 0), and counts p.floor.
func (p *Planner) price(available []bool, cost CostFunc) error {
	if len(available) != p.g.Total {
		return errors.New("retrieval: availability vector size mismatch")
	}
	if cost == nil {
		cost = UnitCost
	}
	p.floor = p.g.Data
	known := p.known
	for v, ok := range available {
		switch {
		case known[v]:
			p.costs[v] = 0
			if v < p.g.Data {
				p.floor--
			}
		case ok:
			p.costs[v] = cost(v)
		default:
			p.costs[v] = math.Inf(1)
		}
	}
	return nil
}

// planOrdered runs reverse-delete in ord's order over the prices in p.costs.
// Known nodes are in the plan from the start, as present blocks, but are
// neither candidates to drop nor listed in the answer.
func (p *Planner) planOrdered(ord ordering) ([]int, float64, error) {
	// Candidate set: available nodes with finite cost, in node order.
	p.cands = p.cands[:0]
	allData := true // every data node is known or a candidate
	known := p.known
	for v := 0; v < p.g.Total; v++ {
		p.inPlan[v] = known[v] || !math.IsInf(p.costs[v], 1)
		p.orphan[v] = false
		switch {
		case known[v]:
		case p.inPlan[v]:
			p.cands = append(p.cands, v)
		case v < p.g.Data:
			allData = false
		}
	}

	if allData && p.checksDropFirst(ord) {
		// Reverse-delete would drop every check while all the data is still
		// read, then find no data node it can do without: the plan is the
		// data nodes not known, and no kernel is asked.
		for _, v := range p.cands[p.floor:] {
			p.inPlan[v] = false
		}
	} else if !p.reverseDelete(ord) {
		return nil, 0, ErrInsufficient
	}

	plan := p.plan[:0]
	total := 0.0
	for v := 0; v < p.g.Total; v++ {
		if p.inPlan[v] && !known[v] {
			plan = append(plan, v)
			total += p.costs[v]
		}
	}
	p.plan = plan
	return plan, total, nil
}

// dropOrder is ord's reverse-delete order: negative when a is tried before b.
func (p *Planner) dropOrder(ord ordering, a, b int) int {
	if ord != orderDeep {
		switch ca, cb := p.costs[a], p.costs[b]; {
		case ca > cb:
			return -1
		case ca < cb:
			return 1
		}
	}
	if ord == orderCostShallow {
		return a - b
	}
	return b - a
}

// checksDropFirst reports whether ord tries every candidate check before any
// data node. It is called with every data node known or a candidate, so the
// candidate list is the p.floor data nodes not known followed by the checks;
// with none of the first, every check can go.
func (p *Planner) checksDropFirst(ord ordering) bool {
	if p.floor == 0 {
		return true
	}
	first := p.cands[0] // the data node tried first
	for _, v := range p.cands[1:p.floor] {
		if p.dropOrder(ord, v, first) < 0 {
			first = v
		}
	}
	for _, v := range p.cands[p.floor:] {
		if p.dropOrder(ord, v, first) > 0 {
			return false
		}
	}
	return true
}

// reverseDelete drops candidates in ord's order while the stripe stays
// decodable, and reports whether it was decodable to begin with. Each probe
// is a one-node kernel delta, not a fresh peel, and a data node nothing left
// in the plan could rebuild is kept without one.
func (p *Planner) reverseDelete(ord ordering) bool {
	k := p.k
	erased := p.erased[:0]
	for v, in := range p.inPlan {
		if !in {
			k.EraseOne(v)
			erased = append(erased, v)
		}
	}
	ok := k.Eval()
	if ok {
		slices.SortStableFunc(p.cands, func(a, b int) int { return p.dropOrder(ord, a, b) })
		for _, v := range p.cands {
			if v < p.g.Data && !p.rebuildable(v) {
				continue
			}
			k.EraseOne(v)
			if k.Eval() {
				p.inPlan[v] = false // dropped for good
				erased = append(erased, v)
			} else {
				k.RestoreOne(v)
			}
		}
	}
	for _, v := range erased {
		k.RestoreOne(v)
	}
	p.erased = erased[:0]
	return ok
}

// rebuildable reports whether peeling could give v back once it is dropped:
// rule 1 needs a parent check that is read, or that is itself rebuilt from
// above — re-encoding the parent would need v. orphan caches the noes, which
// stay no because nodes only ever leave the plan.
func (p *Planner) rebuildable(v int) bool {
	for _, r := range p.g.Parents(v) {
		if p.inPlan[r] || (!p.orphan[r] && p.rebuildable(int(r))) {
			return true
		}
	}
	p.orphan[v] = true
	return false
}

// PlanCost is the projected repair economics of a recovery plan.
type PlanCost struct {
	// Blocks is how many blocks the plan reads.
	Blocks int
	// Surplus is Blocks minus the data-block floor, the data nodes not
	// known: the read amplification the degraded stripe forces, i.e. the
	// projected repair reads. Zero for a healthy stripe.
	Surplus int
	// Cost is the plan's total CostFunc price (spin-ups, remote reads).
	Cost float64
}

// Bytes converts the surplus into projected repair bytes given the
// on-device frame size.
func (c PlanCost) Bytes(frameSize int64) int64 { return int64(c.Surplus) * frameSize }

// PlanEconomic selects the recovery plan with the fewest projected repair
// bytes: it runs reverse-delete under several drop orderings and keeps the
// plan reading the fewest blocks, breaking ties by CostFunc price. A plan
// already at the data-block floor (Surplus 0 — every healthy stripe) wins
// outright, so a healthy read runs one ordering, and that one is answered
// by a scan of the costs (see planOrdered).
//
// cost is called once per available node not known. When the resulting
// prices — 0 where known, cost where available, +Inf elsewhere — equal, bit
// for bit, those of the last successful call, and the known mask equals its
// mask, that call's plan and PlanCost are returned without planning again:
// one scan instead of a reverse-delete, and the same answer, since nothing
// else goes into it. An error forgets the stored answer. The
// returned slice is the stored answer and is reused by later calls —
// callers must not modify it, and those that keep it must copy.
func (p *Planner) PlanEconomic(available []bool, cost CostFunc) ([]int, PlanCost, error) {
	if err := p.price(available, cost); err != nil {
		p.lastOK = false
		return nil, PlanCost{}, err
	}
	if p.lastOK && samePrices(p.costs, p.lastPrices) && slices.Equal(p.known, p.lastKnown) {
		return p.alt, p.lastCost, nil
	}
	best, err := p.planEconomic()
	p.lastOK = err == nil
	if err != nil {
		return nil, PlanCost{}, err
	}
	copy(p.lastPrices, p.costs)
	copy(p.lastKnown, p.known)
	p.lastCost = best
	return p.alt, best, nil
}

// samePrices reports whether a and b hold the same float64 bit patterns, so
// a NaN price matches itself and +0 does not match -0.
func samePrices(a, b []float64) bool {
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// planEconomic is PlanEconomic's search over the prices in p.costs; the
// plan it picks is left in p.alt.
func (p *Planner) planEconomic() (PlanCost, error) {
	plan, total, err := p.planOrdered(orderCostDeep)
	if err != nil {
		return PlanCost{}, err
	}
	best := PlanCost{Blocks: len(plan), Surplus: len(plan) - p.floor, Cost: total}
	p.alt = append(p.alt[:0], plan...)
	if best.Surplus <= 0 {
		return best, nil // at the information floor; unbeatable
	}
	for _, ord := range [...]ordering{orderDeep, orderCostShallow} {
		altPlan, altTotal, err := p.planOrdered(ord)
		if err != nil {
			continue // cannot happen: feasibility is ordering-independent
		}
		c := PlanCost{Blocks: len(altPlan), Surplus: len(altPlan) - p.floor, Cost: altTotal}
		if c.Blocks < best.Blocks || (c.Blocks == best.Blocks && c.Cost < best.Cost) {
			best = c
			p.alt = append(p.alt[:0], altPlan...)
		}
		if best.Surplus <= 0 {
			break
		}
	}
	return best, nil
}

// Plan is the one-shot wrapper: build a throwaway Planner and run it.
// Steady-state callers (the archive stripe path) should hold a Planner.
func Plan(g *graph.Graph, available []bool, cost CostFunc) ([]int, float64, error) {
	plan, total, err := NewPlanner(g).Plan(available, cost)
	if err != nil {
		return nil, total, err
	}
	return slices.Clone(plan), total, nil
}
