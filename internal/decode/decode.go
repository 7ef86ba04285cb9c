// Package decode implements the iterative "peeling" reconstruction used by
// Tornado Codes (paper §2): a missing left node is recovered whenever one of
// its right (check) nodes is present with exactly one missing left neighbor,
// and a missing right node is recomputed whenever all of its left neighbors
// are present. The two rules are applied to fixpoint across all cascade
// levels; data survives if every data node is present afterwards.
//
// Every evaluator walks a shared read-only CSR snapshot. Decoder and Kernel
// run one array peel: Decoder for large erasure sets and full reports —
// erase anytime, Decode names what stays lost — for the codec's rebuild
// order (Schedule), for the shortest decodable prefix of an arrival order
// (Threshold) and as the other evaluators' differential oracle; Kernel for
// a set changed a node at a time (retrieval's reverse-delete probes).
// SlicedKernel peels 64 patterns a word and carries internal/sim's rank
// scan, stratified sampler (paper §3) and, 64 arrival orders a word
// (Thresholds), the failure profile and overhead.
// StoppingEnumerator does not evaluate patterns: it lists the small stopping
// sets, where peeling stalls, from which sim answers the in-memory
// exhaustive search. See DESIGN.md "Decoder kernels".
package decode

import (
	"slices"

	"tornado/internal/graph"
)

// peeler is the array peel Decoder and Kernel share: per-node present
// flags, per-check missing-neighbor counts and a work stack of nodes to
// re-examine. At baseline every node is present, every count zero and the
// stack empty.
type peeler struct {
	c        *CSR
	present  []bool  // present[v]: node v's block is available
	missing  []int32 // missing[r]: number of missing left neighbors of right node r
	stack    []int32 // nodes to re-examine
	lostData int32   // data nodes currently missing
}

func newPeeler(c *CSR) peeler {
	p := peeler{
		c:       c,
		present: make([]bool, c.Total),
		missing: make([]int32, c.Total),
		stack:   make([]int32, 0, 4*c.Total),
	}
	for i := range p.present {
		p.present[i] = true
	}
	return p
}

// erase marks present node v missing and queues what its loss may enable: a
// present parent left with one missing neighbor (rule 1), and v itself if it
// is a check whose left neighbors are all present (rule 2).
func (p *peeler) erase(v int32) {
	p.present[v] = false
	if v < p.c.Data {
		p.lostData++
	}
	for _, r := range p.c.Parents(v) {
		p.missing[r]++
		if p.missing[r] == 1 && p.present[r] {
			p.stack = append(p.stack, r)
		}
	}
	if v >= p.c.Data && p.missing[v] == 0 {
		p.stack = append(p.stack, v)
	}
}

// makePresent marks v available and propagates the state change: parents'
// missing counts drop (possibly enabling recovery or recomputation), and if
// v is itself a right node with exactly one missing left neighbor it can now
// act as a check.
func (p *peeler) makePresent(v int32) {
	p.present[v] = true
	if v < p.c.Data {
		p.lostData--
	}
	for _, r := range p.c.Parents(v) {
		p.missing[r]--
		if p.present[r] {
			if p.missing[r] == 1 {
				p.stack = append(p.stack, r)
			}
		} else if p.missing[r] == 0 {
			p.stack = append(p.stack, r)
		}
	}
	if v >= p.c.Data && p.missing[v] == 1 {
		p.stack = append(p.stack, v)
	}
}

// Step is one rebuild of a peeling schedule. Node != Check is rule 1: left
// node Node is Check XOR Check's other left neighbors. Node == Check is
// rule 2: the check is re-encoded as the XOR of its left neighbors.
type Step struct{ Node, Check int32 }

// peel applies the two rules until none applies or, unless full is set, no
// data node is missing. Nodes left on the stack by the early stop are still
// valid work for a later peel. With log set, every rebuild is appended to
// *log in the order the peel makes them.
func (p *peeler) peel(log *[]Step, full bool) {
	for len(p.stack) > 0 && (p.lostData > 0 || full) {
		r := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		if p.present[r] {
			if p.missing[r] != 1 {
				continue
			}
			// Exactly one left neighbor missing: recover it.
			for _, l := range p.c.LeftNeighbors(r) {
				if !p.present[l] {
					p.makePresent(l)
					if log != nil {
						*log = append(*log, Step{l, r})
					}
					break
				}
			}
		} else if p.missing[r] == 0 {
			// All left neighbors present: recompute the check itself.
			p.makePresent(r)
			if log != nil {
				*log = append(*log, Step{r, r})
			}
		}
	}
}

// restore returns to baseline, given every node erased since the last
// restore (duplicates allowed). A node peeling recovered has already undone
// its erasure's count updates, so only the still-missing ones are walked:
// the cost tracks the erasure, not the graph.
func (p *peeler) restore(erased []int32) {
	for _, v := range erased {
		if p.present[v] {
			continue
		}
		p.present[v] = true
		for _, r := range p.c.Parents(v) {
			p.missing[r]--
		}
	}
	p.lostData = 0
	p.stack = p.stack[:0]
}

// Decoder evaluates erasure patterns against a fixed graph. It is not safe
// for concurrent use; create one Decoder per goroutine. A Decoder peels a
// CSR snapshot of the graph, so it does not observe later mutations of the
// graph.
type Decoder struct {
	peeler
	log   []int32 // every node erased since the last Reset (may contain duplicates)
	steps []Step  // Schedule's result: each node at most once
	need  []bool  // ScheduleFor's marks, all false between calls
	// erasedMissing is missing with every node erased: each check's left
	// degree. Threshold builds it on first use.
	erasedMissing []int32
}

// New returns a Decoder for g in the baseline state (everything present).
func New(g *graph.Graph) *Decoder { return NewDecoder(NewCSR(g)) }

// NewDecoder returns a Decoder over c in the baseline state. Many decoders
// may share one read-only CSR.
func NewDecoder(c *CSR) *Decoder {
	steps, need := make([]Step, 0, c.Total), make([]bool, c.Total)
	return &Decoder{peeler: newPeeler(c), log: make([]int32, 0, c.Total), steps: steps, need: need}
}

// Erase marks nodes as missing. Erasing an already-missing node is a no-op.
// Call Peel afterwards to run reconstruction.
func (d *Decoder) Erase(nodes ...int) {
	for _, v := range nodes {
		if d.present[v] {
			d.log = append(d.log, int32(v))
			d.erase(int32(v))
		}
	}
}

// Peel runs reconstruction until every data node is present or no rule
// applies. A peel that recovered every data node stops there, so it may
// leave checks un-recomputed that a full fixpoint would rebuild; one that
// leaves data missing has reached the fixpoint.
func (d *Decoder) Peel() { d.peel(nil, false) }

// Schedule peels the current erasure to the full fixpoint, past the point
// where every data node is back, and returns its rebuilds in order: each
// target once, every source present before or an earlier target. Call it
// after Erase with no Peel, and Reset afterwards; the slice is the
// decoder's until the next Schedule.
func (d *Decoder) Schedule() []Step {
	d.steps = d.steps[:0]
	d.peel(&d.steps, true)
	return d.steps
}

// ScheduleFor is Schedule pruned to the steps that rebuild a data node or a
// node want names (want is indexed by node; nil names none), and the steps
// those depend on, in the same order. The peel stops once those nodes are
// all back: every later step would be pruned.
func (d *Decoder) ScheduleFor(want []bool) []Step {
	d.steps = d.steps[:0]
	d.peel(&d.steps, false)
	for v, w := range want {
		if w && !d.present[v] {
			d.peel(&d.steps, true)
			break
		}
	}
	steps := d.steps
	kept := len(steps)
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		if s.Node >= d.c.Data && !d.need[s.Node] && (int(s.Node) >= len(want) || !want[s.Node]) {
			continue
		}
		d.need[s.Check] = true
		for _, l := range d.c.LeftNeighbors(s.Check) {
			d.need[l] = true
		}
		kept--
		steps[kept] = s
	}
	clear(d.need)
	d.steps = append(steps[:0], steps[kept:]...)
	return d.steps
}

// AllDataPresent reports whether every data node is currently available.
func (d *Decoder) AllDataPresent() bool { return d.lostData == 0 }

// MissingData appends the IDs of data nodes currently missing to dst,
// sorted and deduplicated, and returns it.
func (d *Decoder) MissingData(dst []int) []int {
	return d.missingFiltered(dst, true)
}

// MissingNodes appends the IDs of all nodes currently missing to dst,
// sorted and deduplicated, and returns it. After a Peel that recovered
// every data node it may name checks a full fixpoint would have recomputed
// (see Peel); when data is lost it is the fixpoint's residue.
func (d *Decoder) MissingNodes(dst []int) []int {
	return d.missingFiltered(dst, false)
}

func (d *Decoder) missingFiltered(dst []int, dataOnly bool) []int {
	start := len(dst)
	for _, v := range d.log {
		if d.present[v] {
			continue
		}
		if dataOnly && v >= d.c.Data {
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
	d.restore(d.log)
	d.log = d.log[:0]
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
