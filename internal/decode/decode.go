// Package decode implements the iterative "peeling" reconstruction used by
// Tornado Codes (paper §2): a missing left node is recovered whenever one of
// its right (check) nodes is present with exactly one missing left neighbor,
// and a missing right node is recomputed whenever all of its left neighbors
// are present. The two rules are applied to fixpoint across all cascade
// levels; data survives if every data node is present afterwards.
//
// The package answers recoverability with three engines, one per job.
// Decoder is the array peel for large erasure sets and full reports — erase
// anytime, Decode names what stays lost — and the oracle the kernels'
// differential tests run against. Kernel (over a shared read-only CSR
// snapshot) answers one-node deltas near the healthy state: incremental
// erase/restore/swap with a tiered, allocation-free Eval. SlicedKernel
// peels 64 patterns a word and carries internal/sim's rank scans and
// samplers (paper §3). StoppingEnumerator does not evaluate patterns: it
// lists the small stopping sets, where peeling stalls, from which sim
// answers the in-memory exhaustive search. See DESIGN.md "Decoder kernels".
package decode

import (
	"slices"

	"tornado/internal/graph"
)

// Decoder evaluates erasure patterns against a fixed graph. It is not safe
// for concurrent use; create one Decoder per goroutine (they share the
// read-only graph).
type Decoder struct {
	g       *graph.Graph
	present []bool  // present[v]: node v's block is available (baseline: all true)
	missing []int32 // missing[r]: number of missing left neighbors of right node r (baseline: 0)
	queue   []int32 // work stack of right nodes to re-examine
	log     []int32 // every node erased since the last Reset (may contain duplicates)
}

// New returns a Decoder for g in the baseline state (everything present).
func New(g *graph.Graph) *Decoder {
	return &Decoder{
		g:       g,
		present: newTrue(g.Total),
		missing: make([]int32, g.Total),
		queue:   make([]int32, 0, 4*g.Total),
		log:     make([]int32, 0, g.Total),
	}
}

func newTrue(n int) []bool {
	p := make([]bool, n)
	for i := range p {
		p[i] = true
	}
	return p
}

// Graph returns the graph this decoder evaluates.
func (d *Decoder) Graph() *graph.Graph { return d.g }

// Erase marks nodes as missing. Erasing an already-missing node is a no-op.
// Call Peel afterwards to run reconstruction.
func (d *Decoder) Erase(nodes ...int) {
	for _, v := range nodes {
		if !d.present[v] {
			continue
		}
		d.present[v] = false
		d.log = append(d.log, int32(v))
		for _, p := range d.g.Parents(v) {
			d.missing[p]++
			if d.missing[p] == 1 && d.present[p] {
				d.queue = append(d.queue, p)
			}
		}
		if d.g.IsRight(v) && d.missing[v] == 0 {
			d.queue = append(d.queue, int32(v))
		}
	}
}

// makePresent marks v available and propagates the state change: parents'
// missing counts drop (possibly enabling recovery or recomputation), and if
// v is itself a right node with exactly one missing left neighbor it can now
// act as a check.
func (d *Decoder) makePresent(v int32) {
	d.present[v] = true
	for _, p := range d.g.Parents(int(v)) {
		d.missing[p]--
		if d.present[p] {
			if d.missing[p] == 1 {
				d.queue = append(d.queue, p)
			}
		} else if d.missing[p] == 0 {
			d.queue = append(d.queue, p)
		}
	}
	if d.g.IsRight(int(v)) && d.missing[v] == 1 {
		d.queue = append(d.queue, v)
	}
}

// Peel runs reconstruction to fixpoint.
func (d *Decoder) Peel() {
	for len(d.queue) > 0 {
		r := d.queue[len(d.queue)-1]
		d.queue = d.queue[:len(d.queue)-1]
		if d.present[r] {
			if d.missing[r] != 1 {
				continue
			}
			// Exactly one left neighbor missing: recover it.
			for _, l := range d.g.LeftNeighbors(int(r)) {
				if !d.present[l] {
					d.makePresent(l)
					break
				}
			}
		} else if d.missing[r] == 0 {
			// All left neighbors present: recompute the check itself.
			d.makePresent(r)
		}
	}
}

// AllDataPresent reports whether every data node is currently available.
func (d *Decoder) AllDataPresent() bool {
	for _, v := range d.log {
		if int(v) < d.g.Data && !d.present[v] {
			return false
		}
	}
	return true
}

// MissingData appends the IDs of data nodes currently missing to dst,
// sorted and deduplicated, and returns it.
func (d *Decoder) MissingData(dst []int) []int {
	return d.missingFiltered(dst, true)
}

// MissingNodes appends the IDs of all nodes currently missing to dst,
// sorted and deduplicated, and returns it.
func (d *Decoder) MissingNodes(dst []int) []int {
	return d.missingFiltered(dst, false)
}

func (d *Decoder) missingFiltered(dst []int, dataOnly bool) []int {
	start := len(dst)
	for _, v := range d.log {
		if d.present[v] {
			continue
		}
		if dataOnly && int(v) >= d.g.Data {
			continue
		}
		dst = append(dst, int(v))
	}
	tail := dst[start:]
	slices.Sort(tail)
	// The log names a node twice when it was erased, recovered by Peel and
	// erased again.
	return dst[:start+len(slices.Compact(tail))]
}

// Reset restores the baseline state (all nodes present). It runs in time
// proportional to the work done since the previous Reset.
func (d *Decoder) Reset() {
	for _, v := range d.log {
		if d.present[v] {
			continue
		}
		d.present[v] = true
		for _, p := range d.g.Parents(int(v)) {
			d.missing[p]--
		}
	}
	d.log = d.log[:0]
	d.queue = d.queue[:0]
}

// Recoverable reports whether erasing exactly the given nodes still allows
// all data nodes to be reconstructed. The decoder is reset afterwards, so
// consecutive calls are independent. This is the hot path of the testing
// system.
func (d *Decoder) Recoverable(erased []int) bool {
	d.Erase(erased...)
	d.Peel()
	ok := d.AllDataPresent()
	d.Reset()
	return ok
}

// Result describes the outcome of a full Decode.
type Result struct {
	OK              bool  // all data nodes recovered
	UnrecoveredData []int // data nodes permanently lost
	Unrecovered     []int // all nodes (data and check) still missing
}

// Decode evaluates an erasure pattern and reports which nodes could not be
// reconstructed. The decoder is reset afterwards.
func (d *Decoder) Decode(erased []int) Result {
	d.Erase(erased...)
	d.Peel()
	res := Result{OK: d.AllDataPresent()}
	if !res.OK {
		res.UnrecoveredData = d.MissingData(nil)
		res.Unrecovered = d.MissingNodes(nil)
	}
	d.Reset()
	return res
}
