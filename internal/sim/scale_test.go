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

// Every evaluator costs what the graph's edges cost: the sampled
// certification, the rank scan and the planner's scalar kernel alike. Dense
// per-node bitmask tables (Total × Words words each, 226 MB for two of them
// at n=30,000, 2.5 GB at n=100,000) are what the tests below rule out.

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
// worker, which at zero failures takes two 65,536-trial blocks (one leaves
// the half-width at 2.9e-5, two at 1.5e-5).
var scaleOptions = SampledOptions{Epsilon: 2e-5, Workers: 1, Seed: 2006}

// sparseBudget is the allocation allowance of one sampled certification of
// g, in bytes: 48 per node and per edge. The CSR is 8 bytes a node and 8 an
// edge, a sampler with its sliced kernel a few dozen bytes a node; dense
// bitmask tables would be Total/4 bytes a node on top.
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
// tornado.CertifyCtx does. The tally is the first two blocks of the one the
// dense-CSR code produced for this seed, which drew a third because its
// stopping rule looked only after 1, 3, 7, … blocks; the allocations must fit the O(edges) budget (22 MB here;
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
	if res.Tally.Trials != 131072 || res.Tally.Hits != 0 {
		t.Errorf("tally %d hits / %d trials, want 0 / 131072", res.Tally.Hits, res.Tally.Trials)
	}
	if hw := res.HalfWidth(); hw > 2e-5 {
		t.Errorf("half-width %v did not reach the 2e-5 target", hw)
	}
}

// requireSparse is the same bound one layer down, on the n=30,000 graph:
// run, which builds a CSR and one evaluator over it, must stay inside the
// sparse budget (6.6 MB), which a 226 MB table build cannot.
func requireSparse(t *testing.T, what string, run func(g *graph.Graph)) {
	t.Helper()
	g := streamGraph(t, 30000)
	if got, budget := allocatedBy(func() { run(g) }), sparseBudget(g); got > budget {
		t.Errorf("%s on %d nodes allocated %d bytes, over the O(edges) budget of %d",
			what, g.Total, got, budget)
	}
}

// TestSamplerNeverBuildsMasks: a StratifiedSampler and one block.
func TestSamplerNeverBuildsMasks(t *testing.T) {
	requireSparse(t, "NewStratifiedSampler + SampleBlock", func(g *graph.Graph) {
		sp := NewStratifiedSampler(decode.NewCSR(g))
		if _, err := sp.SampleBlock(context.Background(), 5, 4096, 2006, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScanNeverBuildsMasks: ScanRangeCtx over a 64K-rank window at k=2 (a
// CSR and one sliced kernel).
func TestScanNeverBuildsMasks(t *testing.T) {
	requireSparse(t, "ScanRangeCtx", func(g *graph.Graph) {
		rr, err := ScanRangeCtx(context.Background(), g, 2, 0, 1<<16, 4)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Tested != 1<<16 {
			t.Errorf("scanned %d patterns, want %d", rr.Tested, 1<<16)
		}
	})
}

// TestKernelNeverBuildsMasks: the scalar kernel retrieval.NewPlanner builds.
func TestKernelNeverBuildsMasks(t *testing.T) {
	requireSparse(t, "NewKernel", func(g *graph.Graph) {
		kn := decode.NewKernel(decode.NewCSR(g))
		if !kn.Recoverable([]int{0, 1, 2}) {
			t.Error("three lost data nodes of the n=30,000 graph do not decode")
		}
	})
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
		if res.Tally.Trials != 131072 {
			b.Fatalf("%d trials, want 131072", res.Tally.Trials)
		}
	}
}

// BenchmarkSampleBlock is one 65,536-trial block of certify_scale's
// sampling, n=30,000 at k=5, on a sampler already warm; ns/trial is the
// trial loop's cost (draw, screen, any kernel batch).
func BenchmarkSampleBlock(b *testing.B) {
	sp := NewStratifiedSampler(decode.NewCSR(streamGraph(b, 30000)))
	const trials = DefaultSampledBlock
	if _, err := sp.SampleBlock(context.Background(), 5, trials, 2006, 0, 256); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := sp.SampleBlock(context.Background(), 5, trials, 2006, uint64(i), 256)
		if err != nil {
			b.Fatal(err)
		}
		if blk.Tally().Trials != trials {
			b.Fatalf("%d trials, want %d", blk.Tally().Trials, trials)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/trial")
}
