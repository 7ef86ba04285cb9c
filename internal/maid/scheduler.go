package maid

import (
	"fmt"
	"math"
	"slices"

	"tornado/internal/graph"
	"tornado/internal/retrieval"
)

// StripeJob is one stripe awaiting retrieval or reconstruction: which
// nodes' blocks are reachable for it (a stripe written before a drive
// failed may have more blocks than a younger one).
type StripeJob struct {
	ID        string
	Available []bool
}

// ScheduledJob is a job with its chosen block plan and the spin-up cost it
// paid under the power state it was scheduled into.
type ScheduledJob struct {
	ID      string
	Plan    []int
	SpinUps int // planned devices that were not already spinning
}

// Schedule orders multiple stripe retrievals on a power-budgeted shelf —
// the paper's future-work setting of reconstructing "multiple stripes at
// the same time within a stateful environment" (§6). Arrival order is a
// poor choice on MAID: consecutive stripes may want disjoint drive sets
// and thrash the spindle budget. Schedule greedily picks, at each step,
// the pending stripe whose cheapest plan needs the fewest new spin-ups
// given the drives the previous step left spinning, then advances the
// simulated LRU power state.
//
// initialHot lists the drives spinning before the batch (nil = all cold);
// budget is the shelf's maximum simultaneously-spinning drive count. It
// returns the schedule and the total spin-up estimate.
func Schedule(g *graph.Graph, jobs []StripeJob, initialHot []int, budget int) ([]ScheduledJob, int, error) {
	if budget < 1 {
		return nil, 0, fmt.Errorf("maid: budget %d out of range", budget)
	}
	state := newPowerSim(g.Total, budget)
	for _, id := range initialHot {
		state.touch(id)
	}

	planner := retrieval.NewPlanner(g)
	pending := make([]StripeJob, len(jobs))
	copy(pending, jobs)
	var out []ScheduledJob
	total := 0
	for len(pending) > 0 {
		bestIdx, bestCost := -1, 0
		var bestPlan []int
		for i, job := range pending {
			if len(job.Available) != g.Total {
				return nil, 0, fmt.Errorf("maid: job %q availability vector size mismatch", job.ID)
			}
			plan, _, err := planner.Plan(job.Available, state.cost)
			if err != nil {
				return nil, 0, fmt.Errorf("maid: job %q: %w", job.ID, err)
			}
			c := state.spinUpsFor(plan)
			if bestIdx < 0 || c < bestCost {
				// The planner reuses plan's array on its next call.
				bestIdx, bestCost, bestPlan = i, c, slices.Clone(plan)
			}
		}
		job := pending[bestIdx]
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		for _, v := range bestPlan {
			state.touch(v)
		}
		out = append(out, ScheduledJob{ID: job.ID, Plan: bestPlan, SpinUps: bestCost})
		total += bestCost
	}
	return out, total, nil
}

// ScheduleArrivalOrder evaluates the same jobs in their given order (the
// baseline the greedy scheduler is compared against).
func ScheduleArrivalOrder(g *graph.Graph, jobs []StripeJob, initialHot []int, budget int) ([]ScheduledJob, int, error) {
	if budget < 1 {
		return nil, 0, fmt.Errorf("maid: budget %d out of range", budget)
	}
	state := newPowerSim(g.Total, budget)
	for _, id := range initialHot {
		state.touch(id)
	}
	planner := retrieval.NewPlanner(g)
	var out []ScheduledJob
	total := 0
	for _, job := range jobs {
		if len(job.Available) != g.Total {
			return nil, 0, fmt.Errorf("maid: job %q availability vector size mismatch", job.ID)
		}
		plan, _, err := planner.Plan(job.Available, state.cost)
		if err != nil {
			return nil, 0, fmt.Errorf("maid: job %q: %w", job.ID, err)
		}
		c := state.spinUpsFor(plan)
		for _, v := range plan {
			state.touch(v)
		}
		out = append(out, ScheduledJob{ID: job.ID, Plan: slices.Clone(plan), SpinUps: c})
		total += c
	}
	return out, total, nil
}

// powerSim is a shelf power-state simulation: an LRU set of at most budget
// spinning drives.
type powerSim struct {
	hot    map[int]int // device → last-touch tick
	order  int
	budget int
	n      int
}

func newPowerSim(n, budget int) *powerSim {
	return &powerSim{hot: map[int]int{}, budget: budget, n: n}
}

func (p *powerSim) cost(v int) float64 {
	if v < 0 || v >= p.n {
		return math.Inf(1)
	}
	if _, ok := p.hot[v]; ok {
		return 0.01
	}
	return 1
}

func (p *powerSim) spinUpsFor(plan []int) int {
	c := 0
	for _, v := range plan {
		if _, ok := p.hot[v]; !ok {
			c++
		}
	}
	return c
}

func (p *powerSim) touch(v int) {
	p.order++
	p.hot[v] = p.order
	for len(p.hot) > p.budget {
		// Evict the least recently used.
		lruDev, lruTick := -1, 1<<62
		for d, tick := range p.hot {
			if tick < lruTick {
				lruDev, lruTick = d, tick
			}
		}
		delete(p.hot, lruDev)
	}
}
