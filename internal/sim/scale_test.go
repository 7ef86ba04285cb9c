package sim

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
)

// The sampled-certification path and the rank scan cost what the graph's
// edges cost. The dense mask tables of decode.CSR.Masks are Total²/4 bytes
// — 226 MB at n=30,000, 2.5 GB at n=100,000 — and belong to decode.Kernel
// alone; nothing below may build them.

// streamGraph generates the archival-scale graph of total nodes from seed
// 2006, the graph of bench's certify_scale workload.
func streamGraph(tb testing.TB, total int) *graph.Graph {
	tb.Helper()
	p := core.DefaultParams()
	p.TotalNodes = total
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// scaleOptions is certify_scale's certification: a 2e-5 half-width on one
// worker, which at zero failures takes 196,608 trials.
var scaleOptions = SampledOptions{Epsilon: 2e-5, Workers: 1, Seed: 2006}

// sparseBudget is the allocation allowance of one sampled certification of
// g, in bytes: 48 per node and per edge. The CSR is 8 bytes a node and 8 an
// edge, a sampler with its sliced kernel a few dozen bytes a node; the mask
// tables would be Total/4 bytes a node on top.
func sparseBudget(g *graph.Graph) uint64 { return 48 * uint64(g.Total+g.EdgeCount()) }

// allocatedBy returns the bytes fn allocates (cumulative, not peak: nothing
// a GC cycle frees is forgotten).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCertifyScaleIsEdgeBound certifies n=100,000 at k=5 the way
// tornado.CertifyCtx does. The tally is the one the dense-CSR code produced
// for this seed; the allocations must fit the O(edges) budget (22 MB here;
// the dense CSR allocated 2.5 GB and took 18 s to fill it).
func TestCertifyScaleIsEdgeBound(t *testing.T) {
	g := streamGraph(t, 100000)
	var res *SampledResult
	got := allocatedBy(func() {
		var err error
		res, err = SampleStratifiedCtx(context.Background(), g, 5, scaleOptions)
		if err != nil {
			t.Fatal(err)
		}
	})
	if budget := sparseBudget(g); got > budget {
		t.Errorf("certifying %d nodes, %d edges allocated %d bytes, over the O(edges) budget of %d",
			g.Total, g.EdgeCount(), got, budget)
	}
	if res.Tally.Trials != 196608 || res.Tally.Hits != 0 {
		t.Errorf("tally %d hits / %d trials, want 0 / 196608", res.Tally.Hits, res.Tally.Trials)
	}
	if hw := res.HalfWidth(); hw > 2e-5 {
		t.Errorf("half-width %v did not reach the 2e-5 target", hw)
	}
}

// TestSamplerNeverBuildsMasks is the same bound one layer down, on the
// n=30,000 graph: a CSR, a StratifiedSampler over it and one block stay
// inside the budget (6.6 MB), which a 226 MB mask build cannot.
func TestSamplerNeverBuildsMasks(t *testing.T) {
	g := streamGraph(t, 30000)
	got := allocatedBy(func() {
		sp := NewStratifiedSampler(decode.NewCSR(g))
		if _, err := sp.SampleBlock(context.Background(), 5, 4096, 2006, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if budget := sparseBudget(g); got > budget {
		t.Errorf("NewCSR + NewStratifiedSampler + SampleBlock on %d nodes allocated %d bytes, budget %d: the mask tables were built",
			g.Total, got, budget)
	}
}

// TestScanNeverBuildsMasks: ScanRangeCtx over a 64K-rank window at k=2 of
// the n=30,000 graph builds a CSR and one sliced kernel and stays inside
// the sparse budget (6.6 MB), which a 226 MB mask build cannot.
func TestScanNeverBuildsMasks(t *testing.T) {
	g := streamGraph(t, 30000)
	got := allocatedBy(func() {
		rr, err := ScanRangeCtx(context.Background(), g, 2, 0, 1<<16, 4)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Tested != 1<<16 {
			t.Errorf("scanned %d patterns, want %d", rr.Tested, 1<<16)
		}
	})
	if budget := sparseBudget(g); got > budget {
		t.Errorf("ScanRangeCtx on %d nodes allocated %d bytes, budget %d: the mask tables were built",
			g.Total, got, budget)
	}
}

// BenchmarkCertifyScale is one sampled certification at n=100,000, k=5, to
// a 2e-5 half-width on one worker: CSR build, stratified sampling, stopping
// rule. CI runs it once per push (bench-smoke) so the O(edges) path is
// compiled and exercised at the size the dense tables made unreachable.
func BenchmarkCertifyScale(b *testing.B) {
	g := streamGraph(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SampleStratifiedCtx(context.Background(), g, 5, scaleOptions)
		if err != nil {
			b.Fatal(err)
		}
		if res.Tally.Trials != 196608 {
			b.Fatalf("%d trials, want 196608", res.Tally.Trials)
		}
	}
}
