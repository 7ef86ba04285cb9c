package decode

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// TestCSRMasksBuiltOnFirstUse: a CSR is adjacency only until a mask reader
// asks. NewCSR and a working SlicedKernel leave the tables nil; the first
// NewKernel builds them, row for row the adjacency lists as bitmasks.
func TestCSRMasksBuiltOnFirstUse(t *testing.T) {
	g := randomBench96(rand.New(rand.NewPCG(1, 2)))
	c := NewCSR(g)
	evalBenchWord(NewSlicedKernel(c))
	if c.leftMask != nil || c.parMask != nil {
		t.Fatal("NewCSR + SlicedKernel built the mask tables; only NewKernel may")
	}

	kn := NewKernel(c)
	if len(c.leftMask) != g.Total*c.Words || len(c.parMask) != g.Total*c.Words {
		t.Fatalf("tables hold %d and %d words, want Total × Words = %d", len(c.leftMask), len(c.parMask), g.Total*c.Words)
	}
	if &kn.leftMask[0] != &c.leftMask[0] || &kn.parMask[0] != &c.parMask[0] {
		t.Error("the kernel did not capture the CSR's tables")
	}
	bitsOf := func(row []uint64) []int32 {
		var out []int32
		for v := int32(0); v < c.Total; v++ {
			if erased(row, v) {
				out = append(out, v)
			}
		}
		return out
	}
	for v := int32(0); v < c.Total; v++ {
		row := func(table []uint64) []uint64 { return table[int(v)*c.Words : (int(v)+1)*c.Words] }
		wantLeft, wantPar := slices.Clone(c.LeftNeighbors(v)), slices.Clone(c.Parents(v))
		slices.Sort(wantLeft)
		slices.Sort(wantPar)
		if got := bitsOf(row(c.leftMask)); !slices.Equal(got, wantLeft) {
			t.Errorf("leftMask row %d = %v, want %v", v, got, wantLeft)
		}
		if got := bitsOf(row(c.parMask)); !slices.Equal(got, wantPar) {
			t.Errorf("parMask row %d = %v, want %v", v, got, wantPar)
		}
	}
}

// TestCSRMasksBuiltOnceConcurrently is the per-worker construction pattern
// at its worst: every worker's NewKernel reaches a fresh shared CSR at the
// same moment. The tables must be built exactly once — every kernel holds
// the same backing arrays — and every kernel must agree with the oracle.
// Run under -race (make race).
func TestCSRMasksBuiltOnceConcurrently(t *testing.T) {
	const workers = 8
	g := randomBench96(rand.New(rand.NewPCG(3, 4)))
	c := NewCSR(g)

	kernels := make([]*Kernel, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			kn := NewKernel(c)
			kernels[w] = kn
			rng := rand.New(rand.NewPCG(uint64(w), 0xC5A))
			erasedNodes := make([]int, 6)
			for trial := 0; trial < 200; trial++ {
				for j := range erasedNodes {
					erasedNodes[j] = rng.IntN(g.Total)
				}
				if got, want := kn.Recoverable(erasedNodes), ReferenceRecoverable(g, erasedNodes); got != want {
					t.Errorf("worker %d: kernel says %v for %v, reference %v", w, got, erasedNodes, want)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for w, kn := range kernels {
		if &kn.leftMask[0] != &c.leftMask[0] || &kn.parMask[0] != &c.parMask[0] {
			t.Errorf("worker %d holds its own mask tables; they must be built once per CSR", w)
		}
	}
}
