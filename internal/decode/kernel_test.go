package decode

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"tornado/internal/combin"
	"tornado/internal/graph"
)

// TestKernelFixtures re-runs the Decoder fixture verdicts through the
// kernel's one-shot path.
func TestKernelFixtures(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		erased []int
		want   bool
	}{
		{"mirror pair loss", mirror(4), []int{0, 4}, false},
		{"mirror unrelated", mirror(4), []int{0, 5}, true},
		{"mirror all mirrors", mirror(4), []int{4, 5, 6, 7}, true},
		{"cascade chain", cascade(t), []int{0, 4}, true},
		{"cascade chain cut", cascade(t), []int{0, 4, 6}, false},
		{"cascade recompute", cascade(t), []int{0, 4, 5}, true},
		{"defect closed set", defective(t), []int{0, 1}, false},
		{"empty set", cascade(t), nil, true},
	}
	for _, tc := range cases {
		kn := NewKernel(NewCSR(tc.g))
		if got := kn.Recoverable(tc.erased); got != tc.want {
			t.Errorf("%s: kernel says %v, want %v", tc.name, got, tc.want)
		}
		if kn.Erased() != 0 || kn.MissingData() != 0 {
			t.Errorf("%s: kernel not restored: %d erased, %d data missing", tc.name, kn.Erased(), kn.MissingData())
		}
	}
}

// exhaustiveGraphs builds the small-graph corpus for the exhaustive
// equivalence tests: the hand-built fixtures plus seeded random cascades,
// all with n ≤ 20 nodes.
func exhaustiveGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	gs := []*graph.Graph{mirror(4), cascade(t), defective(t)}
	for seed := uint64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xC0DE))
		for {
			g := randomCascade(rng)
			if g.Total <= 20 {
				gs = append(gs, g)
				break
			}
		}
	}
	return gs
}

// TestKernelExhaustiveAgainstReference asserts, for every graph in the
// small corpus and every cardinality k ≤ 4, that the kernel (one-shot
// path), the Decoder, and ReferenceRecoverable agree on *every* erasure
// combination — the lexicographic enumeration half of the battery.
func TestKernelExhaustiveAgainstReference(t *testing.T) {
	for gi, g := range exhaustiveGraphs(t) {
		kn := NewKernel(NewCSR(g))
		d := New(g)
		for k := 1; k <= 4 && k <= g.Total; k++ {
			combin.ForEach(g.Total, k, func(idx []int) bool {
				want := ReferenceRecoverable(g, idx)
				if got := kn.Recoverable(idx); got != want {
					t.Errorf("graph %d (%v) erased %v: kernel=%v reference=%v", gi, g, idx, got, want)
					return false
				}
				if got := d.Recoverable(idx); got != want {
					t.Errorf("graph %d (%v) erased %v: decoder=%v reference=%v", gi, g, idx, got, want)
					return false
				}
				return true
			})
		}
	}
}

// TestKernelGrayScanMatchesLexicographic asserts the incremental
// revolving-door scan — one Swap delta per step, never a full reset —
// produces the same per-combination verdicts as independent one-shot
// evaluation in lexicographic order, and that both orders visit the same
// C(n,k) combinations. This is the enumeration-ordering half of the
// battery: a stale counter or a bad undo log would desynchronize the
// incremental state within a few swaps.
func TestKernelGrayScanMatchesLexicographic(t *testing.T) {
	for gi, g := range exhaustiveGraphs(t) {
		for k := 1; k <= 4 && k <= g.Total; k++ {
			lex := map[string]bool{}
			oracle := NewKernel(NewCSR(g))
			combin.ForEach(g.Total, k, func(idx []int) bool {
				lex[fmt.Sprint(idx)] = oracle.Recoverable(idx)
				return true
			})

			kn := NewKernel(NewCSR(g))
			idx := make([]int, k)
			combin.GrayUnrank(idx, g.Total, 0)
			for _, v := range idx {
				kn.EraseOne(v)
			}
			gray := map[string]bool{}
			for {
				key := fmt.Sprint(idx)
				if _, dup := gray[key]; dup {
					t.Fatalf("graph %d k=%d: gray order revisited %v", gi, k, idx)
				}
				got := kn.Eval()
				gray[key] = got
				want, known := lex[key]
				if !known {
					t.Fatalf("graph %d k=%d: gray order visited %v, absent from lexicographic order", gi, k, idx)
				}
				if got != want {
					t.Fatalf("graph %d (%v) k=%d erased %v: incremental=%v one-shot=%v", gi, g, k, idx, got, want)
				}
				if want != ReferenceRecoverable(g, idx) {
					t.Fatalf("graph %d k=%d erased %v: oracle disagrees with reference", gi, k, idx)
				}
				out, in, ok := combin.GrayNext(idx, g.Total)
				if !ok {
					break
				}
				kn.Swap(out, in)
			}
			if len(gray) != len(lex) {
				t.Fatalf("graph %d k=%d: gray visited %d combinations, lexicographic %d", gi, k, len(gray), len(lex))
			}
		}
	}
}

// TestKernelDeltaStateRestored: after any erase/eval/restore sequence the
// kernel is back at baseline and evaluates like a fresh instance.
func TestKernelDeltaStateRestored(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		g := randomCascade(rng)
		csr := NewCSR(g)
		kn := NewKernel(csr)
		for trial := 0; trial < 10; trial++ {
			k := rng.IntN(g.Total + 1)
			erased := rng.Perm(g.Total)[:k]
			for _, v := range erased {
				kn.EraseOne(v)
			}
			kn.Eval()
			for _, v := range erased {
				kn.RestoreOne(v)
			}
		}
		if kn.Erased() != 0 || kn.MissingData() != 0 {
			return false
		}
		// Baseline behavior must match a fresh kernel on fresh patterns.
		fresh := NewKernel(csr)
		for trial := 0; trial < 10; trial++ {
			k := rng.IntN(g.Total + 1)
			erased := rng.Perm(g.Total)[:k]
			if kn.Recoverable(erased) != fresh.Recoverable(erased) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestKernelSharedCSR: kernels sharing one CSR are independent — the
// per-worker usage pattern of the parallel scans.
func TestKernelSharedCSR(t *testing.T) {
	g := defective(t)
	csr := NewCSR(g)
	a, b := NewKernel(csr), NewKernel(csr)
	a.EraseOne(0)
	if !b.Recoverable([]int{0}) {
		t.Error("kernel b observed kernel a's erasures")
	}
	a.EraseOne(1)
	if a.Eval() {
		t.Error("closed set {0,1} must be unrecoverable")
	}
	if got := a.MissingData(); got != 2 {
		t.Errorf("a.MissingData() = %d, want 2 (pre-peeling state restored)", got)
	}
}

func BenchmarkKernelRecoverableK5(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := randomBench96(rng)
	kn := NewKernel(NewCSR(g))
	erased := make([]int, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range erased {
			erased[j] = rng.IntN(g.Total)
		}
		kn.Recoverable(erased)
	}
}

// BenchmarkKernelGrayRecoverableK5 measures the steady-state incremental
// scan: one revolving-door swap and one Eval per pattern. This is the
// exhaustive-certification hot path; allocs/op must be zero.
func BenchmarkKernelGrayRecoverableK5(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := randomBench96(rng)
	kn := NewKernel(NewCSR(g))
	idx := make([]int, 5)
	combin.GrayUnrank(idx, g.Total, 0)
	for _, v := range idx {
		kn.EraseOne(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.Eval()
		out, in, ok := combin.GrayNext(idx, g.Total)
		if !ok {
			combin.GrayUnrank(idx, g.Total, 0)
			for _, v := range idx {
				kn.RestoreOne(v)
			}
			b.Fatal("rank space exhausted") // C(96,5) >> any b.N
		}
		kn.Swap(out, in)
	}
}

// TestKernelsZeroAllocs is the allocation gate on the steady-state
// evaluators the certification scans and the retrieval planner sit on: a
// one-shot Kernel.Recoverable, one revolving-door Eval/Swap step, one
// SlicedKernel word (Reset, 68 Erases, Eval) and the profile's order
// thresholds (Decoder.Threshold, a SlicedKernel.Thresholds word) must not
// allocate.
func TestKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := randomBench96(rng)
	csr := NewCSR(g)

	oneShot, erased := NewKernel(csr), make([]int, 5)
	scan, idx := NewKernel(csr), make([]int, 5)
	combin.GrayUnrank(idx, g.Total, 0)
	for _, v := range idx {
		scan.EraseOne(v)
	}
	sk := NewSlicedKernel(csr)
	d, order := NewDecoder(csr), rng.Perm(g.Total)
	d.Threshold(order, 0, g.Total) // builds the all-erased snapshot
	orders, ts := make([][]int, Lanes), make([]int, Lanes)
	for L := range orders {
		orders[L] = rng.Perm(g.Total)
	}

	for _, tc := range []struct {
		name string
		step func()
	}{
		{"Kernel.Recoverable", func() {
			for j := range erased {
				erased[j] = rng.IntN(g.Total)
			}
			oneShot.Recoverable(erased)
		}},
		{"Kernel.Eval+Swap", func() {
			scan.Eval()
			out, in, _ := combin.GrayNext(idx, g.Total)
			scan.Swap(out, in)
		}},
		{"SlicedKernel word", func() { evalBenchWord(sk) }},
		{"Decoder.Threshold", func() {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			d.Threshold(order, 0, g.Total)
			d.Threshold(order, g.Total-8, g.Total)
		}},
		{"SlicedKernel.Thresholds", func() {
			sk.Thresholds(orders, 0, g.Total, ts)
			sk.Thresholds(orders[:5], g.Total-8, g.Total, ts)
		}},
	} {
		if allocs := testing.AllocsPerRun(100, tc.step); allocs != 0 {
			t.Errorf("%s allocates %.1f/op; steady-state kernel paths must be allocation-free", tc.name, allocs)
		}
	}
}
