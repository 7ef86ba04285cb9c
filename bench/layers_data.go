package main

import (
	"context"
	"fmt"
	"time"
)

// dataLayerTimes carries the replay figures the callers turn into budget
// lines.
type dataLayerTimes struct {
	planHealthyNs, planDegradedNs  float64
	decodeHealthyNs, decode4LostNs float64
	encodeNs                       float64
}

// dataLayers measures the two layers under the archive — retrieval and codec —
// by calling their exported entry points on the inputs the archive gives them:
// a full stripe of the workload's payload, the all-available mask of a healthy
// read, and the mask with the workload's failed data devices missing. Tight
// loops get one span each; the tracer must already be off for the allocation
// counts.
func dataLayers(e *env, g *Graph, failed []int) (dataLayerTimes, error) {
	var out dataLayerTimes
	c, err := newCodec(g)
	if err != nil {
		return out, err
	}
	capacity := c.Capacity()
	payload := newPayloads(e.seed, capacity).object(0)
	mbps := func(ns float64) float64 { return float64(capacity) / ns * 1e3 }

	// codec: encode.
	enc := c.NewEncoder()
	var encoded [][]byte
	out.encodeNs = medianNs(200, func() { encoded, err = enc.Encode(payload) })
	if err != nil {
		return out, err
	}
	e.set("codec.encode_mbps", mbps(out.encodeNs))
	n, _ := allocsPer(200, func() { _, _ = enc.Encode(payload) })
	e.set("codec.encode_allocs_per_op", n)
	// Every edge XORs one block into a check block: edges x block size bytes
	// read per stripe of data x block size user bytes. Computed, not measured.
	e.set("codec.xor_bytes_per_user_byte", float64(g.EdgeCount())/float64(g.Data))

	// The encoder owns its blocks; keep a private copy as the stripe on disk.
	stripe := make([][]byte, len(encoded))
	for i, b := range encoded {
		stripe[i] = append([]byte(nil), b...)
	}

	// retrieval: the plan the archive asks for before every stripe read.
	pl := newPlanner(g)
	healthy := make([]bool, g.Total)
	degraded := make([]bool, g.Total)
	for v := range healthy {
		healthy[v], degraded[v] = true, true
	}
	for _, v := range failed {
		degraded[v] = false
	}
	out.planHealthyNs = medianNs(2000, func() { _, _, err = pl.PlanEconomic(healthy, unitCost) })
	if err != nil {
		return out, err
	}
	e.set("retrieval.plan_healthy_ns", out.planHealthyNs)
	healthyPlan, _, _ := pl.PlanEconomic(healthy, unitCost)
	healthyPlan = append([]int(nil), healthyPlan...)
	out.planDegradedNs = medianNs(2000, func() { _, _, err = pl.PlanEconomic(degraded, unitCost) })
	if err != nil {
		return out, fmt.Errorf("plan with %v failed: %w", failed, err)
	}
	e.set("retrieval.plan_degraded_ns", out.planDegradedNs)
	degradedPlan, cost, _ := pl.PlanEconomic(degraded, unitCost)
	degradedPlan = append([]int(nil), degradedPlan...)
	e.set("retrieval.plan_surplus_blocks", float64(cost.Surplus))

	// codec: decode from exactly the blocks each plan reads. DecodeInto fills
	// the input slice in as it repairs, so every call starts from a fresh one.
	ws := c.NewWorkspace()
	dst := make([]byte, 0, capacity)
	in := make([][]byte, g.Total)
	decodeFrom := func(plan []int) func() {
		return func() {
			clear(in)
			for _, v := range plan {
				in[v] = stripe[v]
			}
			_, err = c.DecodeInto(ws, dst[:0], in, capacity)
		}
	}
	out.decodeHealthyNs = medianNs(200, decodeFrom(healthyPlan))
	if err != nil {
		return out, err
	}
	e.set("codec.decode_healthy_mbps", mbps(out.decodeHealthyNs))
	out.decode4LostNs = medianNs(200, decodeFrom(degradedPlan))
	if err != nil {
		return out, err
	}
	e.set("codec.decode_4lost_mbps", mbps(out.decode4LostNs))

	// codec: the scrub's repair of a stripe whose failed blocks are blank.
	repairNs := medianNs(200, func() {
		copy(in, stripe)
		for _, v := range failed {
			in[v] = nil
		}
		err = c.RepairWith(ws, in)
	})
	if err != nil {
		return out, err
	}
	e.set("codec.repair_4lost_us", repairNs/1e3)
	return out, nil
}

// replay times one call into a layer and records it as a root span; fn gets
// a context that makes the shims below record their spans under it.
func (e *env) replay(ctx context.Context, name string, fn func(context.Context) error) (time.Duration, error) {
	sp := e.tr.root(name)
	t0 := time.Now()
	err := fn(sp.ctx(ctx))
	d := time.Since(t0)
	sp.end()
	return d, err
}
