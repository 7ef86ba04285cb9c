// Package workload generates deterministic synthetic archival workloads —
// the ingest/retrieve/fail/repair streams used to exercise and benchmark
// the archival store. The paper's setting is write-once, read-rarely
// archives of whole objects (§2.2); sizes follow a configurable
// distribution (archival collections are classically log-normal), reads
// pick stored objects by Zipf-ish recency, and device failures and
// replacements are injected on a schedule.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// SizeDist selects the object size distribution.
type SizeDist int

const (
	// SizeFixed makes every object exactly MeanSize bytes.
	SizeFixed SizeDist = iota
	// SizeUniform draws sizes uniformly from [MinSize, MaxSize].
	SizeUniform
	// SizeLogNormal draws log-normal sizes with median MeanSize and shape
	// Sigma, clamped to [MinSize, MaxSize].
	SizeLogNormal
)

// OpKind is the type of one workload operation.
type OpKind int

const (
	// OpPut ingests a new object.
	OpPut OpKind = iota
	// OpGet retrieves a stored object.
	OpGet
	// OpFail destroys a random device.
	OpFail
	// OpRepair replaces all failed devices and triggers a scrub.
	OpRepair
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpFail:
		return "fail"
	case OpRepair:
		return "repair"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one generated operation.
type Op struct {
	Kind   OpKind
	Object string // for Put/Get
	Size   int    // for Put; for Get, the size the object was Put with
}

// Spec configures a workload.
type Spec struct {
	// Ops is the total operation count (excluding injected fail/repair).
	Ops int
	// PutFraction is the fraction of operations that are ingests; the
	// rest are retrievals. Archival systems are ingest-heavy early and
	// read-rare later; 0.5 by default.
	PutFraction float64
	// Size distribution parameters.
	SizeDist SizeDist
	MeanSize int
	MinSize  int
	MaxSize  int
	Sigma    float64
	// FailEvery injects a device failure after every FailEvery
	// operations (0 = never).
	FailEvery int
	// RepairEvery injects a replace-and-scrub after every RepairEvery
	// operations (0 = never).
	RepairEvery int
	// Seed drives all randomness; equal specs generate equal streams.
	Seed uint64
}

func (s *Spec) setDefaults() {
	if s.PutFraction <= 0 || s.PutFraction > 1 {
		s.PutFraction = 0.5
	}
	if s.MeanSize <= 0 {
		s.MeanSize = 64 << 10
	}
	if s.MinSize <= 0 {
		s.MinSize = 1
	}
	if s.MaxSize <= 0 {
		s.MaxSize = 16 * s.MeanSize
	}
	if s.Sigma <= 0 {
		s.Sigma = 1.0
	}
}

// Generator produces a deterministic operation stream.
type Generator struct {
	spec       Spec
	rng        *rand.Rand
	emitted    int
	stored     []Op // every Put so far, in order
	nextID     int
	lastFail   int
	lastRepair int
}

// NewGenerator returns a generator for spec.
func NewGenerator(spec Spec) (*Generator, error) {
	spec.setDefaults()
	if spec.Ops < 0 {
		return nil, fmt.Errorf("workload: negative op count")
	}
	if spec.MinSize > spec.MaxSize {
		return nil, fmt.Errorf("workload: MinSize %d > MaxSize %d", spec.MinSize, spec.MaxSize)
	}
	return &Generator{
		spec: spec,
		rng:  rand.New(rand.NewPCG(spec.Seed, 0xA7C)),
	}, nil
}

// Next returns the next operation, or ok=false when the stream is
// exhausted.
func (g *Generator) Next() (Op, bool) {
	s := &g.spec
	if g.emitted >= s.Ops {
		return Op{}, false
	}
	// Injected maintenance events ride between regular operations.
	n := g.emitted + 1
	if s.FailEvery > 0 && n%s.FailEvery == 0 && !g.failedAt(n) {
		g.markFail(n)
		return Op{Kind: OpFail}, true
	}
	if s.RepairEvery > 0 && n%s.RepairEvery == 0 && !g.repairedAt(n) {
		g.markRepair(n)
		return Op{Kind: OpRepair}, true
	}
	g.emitted++

	if len(g.stored) == 0 || g.rng.Float64() < s.PutFraction {
		put := Op{Kind: OpPut, Object: fmt.Sprintf("obj-%06d", g.nextID), Size: g.size()}
		g.nextID++
		g.stored = append(g.stored, put)
		return put, true
	}
	// Recency-biased read: sample an index skewed toward recent ingests.
	idx := len(g.stored) - 1 - int(float64(len(g.stored))*math.Pow(g.rng.Float64(), 2))
	if idx < 0 {
		idx = 0
	}
	get := g.stored[idx]
	get.Kind = OpGet
	return get, true
}

// fail/repair bookkeeping: at most one injected event per schedule slot.

func (g *Generator) failedAt(n int) bool   { return g.lastFail == n }
func (g *Generator) repairedAt(n int) bool { return g.lastRepair == n }
func (g *Generator) markFail(n int)        { g.lastFail = n }
func (g *Generator) markRepair(n int)      { g.lastRepair = n }

// size draws an object size from the configured distribution.
func (g *Generator) size() int {
	s := &g.spec
	var v int
	switch s.SizeDist {
	case SizeUniform:
		v = s.MinSize + g.rng.IntN(s.MaxSize-s.MinSize+1)
	case SizeLogNormal:
		v = int(float64(s.MeanSize) * math.Exp(s.Sigma*g.rng.NormFloat64()))
	default:
		v = s.MeanSize
	}
	if v < s.MinSize {
		v = s.MinSize
	}
	if v > s.MaxSize {
		v = s.MaxSize
	}
	return v
}
