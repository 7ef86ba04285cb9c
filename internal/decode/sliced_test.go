package decode

import (
	"math/rand/v2"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/graph"
)

// slicedVerdicts evaluates a batch of up to 64 erasure patterns in one
// SlicedKernel word and returns the per-lane verdict bitmap.
func slicedVerdicts(sk *SlicedKernel, patterns [][]int) uint64 {
	sk.Reset()
	active := uint64(0)
	for L, p := range patterns {
		active |= 1 << uint(L)
		for _, v := range p {
			sk.Erase(v, 1<<uint(L))
		}
	}
	sk.SetActive(active)
	return sk.Eval()
}

// TestSlicedMatchesReferenceExhaustive is the sliced kernel's exhaustive
// differential arm: every erasure combination of every small graph at
// k ≤ 5, batched 64 lanes per word in revolving-door order (so the final
// word of each cardinality is partial), must agree lane-for-lane with
// both the scalar kernel and ReferenceRecoverable.
func TestSlicedMatchesReferenceExhaustive(t *testing.T) {
	for gi, g := range exhaustiveGraphs(t) {
		csr := NewCSR(g)
		sk := NewSlicedKernel(csr)
		kn := NewKernel(csr)
		for k := 1; k <= min(5, g.Total); k++ {
			total, ok := combin.BinomialInt64(g.Total, k)
			if !ok {
				t.Fatalf("graph %d: C(%d,%d) overflows", gi, g.Total, k)
			}
			idx := make([]int, k)
			combin.GrayUnrank(idx, g.Total, 0)
			var batch [][]int
			flush := func() {
				got := slicedVerdicts(sk, batch)
				for L, p := range batch {
					want := ReferenceRecoverable(g, p)
					if kn.Recoverable(p) != want {
						t.Fatalf("graph %d: scalar kernel disagrees with reference on %v", gi, p)
					}
					if lane := got&(1<<uint(L)) != 0; lane != want {
						t.Fatalf("graph %d k=%d: sliced lane %d = %v, reference = %v (erased %v)",
							gi, k, L, lane, want, p)
					}
				}
				batch = batch[:0]
			}
			for r := int64(0); r < total; r++ {
				batch = append(batch, append([]int(nil), idx...))
				if len(batch) == Lanes {
					flush()
				}
				if r+1 < total {
					combin.GrayNext(idx, g.Total)
				}
			}
			flush()
		}
	}
}

// TestSlicedLaneBoundaries pins the word-edge cases: a single pattern in
// lane 0, the same pattern in lane 63, all 64 lanes holding an identical
// pattern, and inactive lanes with stale erased bits reporting 0.
func TestSlicedLaneBoundaries(t *testing.T) {
	for gi, g := range exhaustiveGraphs(t) {
		csr := NewCSR(g)
		sk := NewSlicedKernel(csr)
		rng := rand.New(rand.NewPCG(uint64(gi), 0x51A9ED))
		for trial := 0; trial < 20; trial++ {
			n := rng.IntN(g.Total + 1)
			p := rng.Perm(g.Total)[:n]
			want := ReferenceRecoverable(g, p)

			for _, lane := range []uint{0, 63} {
				sk.Reset()
				sk.SetActive(1 << lane)
				for _, v := range p {
					sk.Erase(v, 1<<lane)
				}
				got := sk.Eval()
				if want {
					if got != 1<<lane {
						t.Fatalf("graph %d lane %d: verdict %#x, want %#x (erased %v)", gi, lane, got, uint64(1)<<lane, p)
					}
				} else if got != 0 {
					t.Fatalf("graph %d lane %d: verdict %#x, want 0 (erased %v)", gi, lane, got, p)
				}
			}

			// All 64 lanes identical: verdict must be all-ones or zero.
			sk.Reset()
			sk.SetActive(^uint64(0))
			for _, v := range p {
				sk.Erase(v, ^uint64(0))
			}
			got := sk.Eval()
			if want && got != ^uint64(0) {
				t.Fatalf("graph %d all-lanes: verdict %#x, want all-ones (erased %v)", gi, got, p)
			}
			if !want && got != 0 {
				t.Fatalf("graph %d all-lanes: verdict %#x, want 0 (erased %v)", gi, got, p)
			}

			// Inactive lanes stay silent even with erased bits set.
			sk.Reset()
			for _, v := range p {
				sk.Erase(v, ^uint64(0))
			}
			sk.SetActive(1 << 7)
			got = sk.Eval()
			if got&^(1<<7) != 0 {
				t.Fatalf("graph %d: inactive lanes reported verdicts: %#x", gi, got)
			}
		}
	}
}

// TestSlicedReuse drives one kernel through alternating heavy and light
// words and checks the between-Evals invariant holds (a stale word must
// not leak into the next verdict).
func TestSlicedReuse(t *testing.T) {
	for gi, g := range exhaustiveGraphs(t) {
		csr := NewCSR(g)
		sk := NewSlicedKernel(csr)
		kn := NewKernel(csr)
		rng := rand.New(rand.NewPCG(uint64(gi)^0xABCD, 7))
		for trial := 0; trial < 30; trial++ {
			lanes := 1 + rng.IntN(Lanes)
			batch := make([][]int, lanes)
			for L := range batch {
				n := rng.IntN(g.Total + 1)
				batch[L] = rng.Perm(g.Total)[:n]
			}
			got := slicedVerdicts(sk, batch)
			for L, p := range batch {
				want := kn.Recoverable(p)
				if lane := got&(1<<uint(L)) != 0; lane != want {
					t.Fatalf("graph %d trial %d: sliced lane %d = %v, scalar = %v (erased %v)",
						gi, trial, L, lane, want, p)
				}
			}
		}
	}
}

// TestSlicedChainCascade drives the fixpoint loop's exit. On a chain —
// check i covers data nodes i and i+1, the last check data node D−1 alone —
// erasing data 0..L takes L+1 sweeps to peel back when the checks are
// visited in ascending order, as ascending Erase calls queue them: each
// sweep only the check at the front of the erased run has one missing
// neighbor. Lanes 0..D−1 erase 0..L and recover after 1..D sweeps; lane
// D+m erases every data node and check m, so it recovers D−1−m nodes and
// then sticks (check m is erased with one missing neighbor). One word must
// report exactly the first D lanes, the same again when re-evaluated, and
// leave the peel state all-zero between Evals.
func TestSlicedChainCascade(t *testing.T) {
	const depth = Lanes / 2
	g := chainGraph(depth)
	csr := NewCSR(g)
	sk := NewSlicedKernel(csr)
	patterns := make([][]int, Lanes)
	for L := 0; L < depth; L++ {
		for v := 0; v <= L; v++ {
			patterns[L] = append(patterns[L], v)
		}
		for v := 0; v < depth; v++ {
			patterns[depth+L] = append(patterns[depth+L], v)
		}
		patterns[depth+L] = append(patterns[depth+L], depth+L)
	}
	want := uint64(1)<<depth - 1
	for L, p := range patterns {
		if ref := ReferenceRecoverable(g, p); ref != (want&(1<<uint(L)) != 0) {
			t.Fatalf("lane %d (erased %v): reference says recoverable=%v", L, p, ref)
		}
	}
	if got := slicedVerdicts(sk, patterns); got != want {
		t.Fatalf("verdict %#x, want %#x", got, want)
	}
	for pass := 0; pass < 2; pass++ {
		for v, m := range sk.missing {
			if m != 0 || sk.onCheck[v] {
				t.Fatalf("after Eval: node %d missing %#x, onCheck %v", v, m, sk.onCheck[v])
			}
		}
		if got := sk.Eval(); got != want {
			t.Fatalf("re-evaluated word: verdict %#x, want %#x", got, want)
		}
	}
}

// chainGraph returns the chain graph of TestSlicedChainCascade: data
// nodes 0..depth−1, check depth+i over data i and i+1, the last check over
// data depth−1 alone.
func chainGraph(depth int) *graph.Graph {
	b := graph.NewBuilder(depth)
	r := b.AddLevel(0, depth, depth)
	g := b.Graph()
	for i := 0; i < depth-1; i++ {
		g.SetNeighbors(r+i, []int{i, i + 1})
	}
	g.SetNeighbors(r+depth-1, []int{depth - 1})
	return g
}

// evalBenchWord loads and evaluates one word of 64 distinct k=5 patterns:
// a shared 4-node suffix plus a sweeping smallest element, the scan's
// actual word shape.
func evalBenchWord(sk *SlicedKernel) uint64 {
	sk.Reset()
	sk.SetActive(^uint64(0))
	for _, v := range []int{70, 75, 80, 85} {
		sk.Erase(v, ^uint64(0))
	}
	for L := 0; L < Lanes; L++ {
		sk.Erase(L, 1<<uint(L))
	}
	return sk.Eval()
}

// BenchmarkSlicedEvalWord measures the steady-state sliced fixpoint, one
// evalBenchWord per op: reported per-op cost therefore covers 64 pattern
// evaluations. TestKernelsZeroAllocs holds it to zero allocations.
func BenchmarkSlicedEvalWord(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	sk := NewSlicedKernel(NewCSR(randomBench96(rng)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evalBenchWord(sk) == 0 {
			b.Fatal("benchmark word unexpectedly unrecoverable in every lane")
		}
	}
}
