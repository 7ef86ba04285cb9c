package decode

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"tornado/internal/graph"
)

// mirror builds a 2n-node mirrored system as a graph: n data nodes, n
// degree-1 checks, check n+i mirroring data i. This is the validation graph
// from paper §3 (Equation 1).
func mirror(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	r := b.AddLevel(0, n, n)
	g := b.Graph()
	for i := 0; i < n; i++ {
		g.SetNeighbors(r+i, []int{i})
	}
	return g
}

// cascade builds a small three-stage cascade:
//
//	data 0..3 → checks 4,5 (each over 2 data) → check 6 (over 4,5)
func cascade(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	r1 := b.AddLevel(0, 4, 2)
	r2 := b.AddLevel(r1, 2, 1)
	g := b.Graph()
	g.SetNeighbors(r1, []int{0, 1})
	g.SetNeighbors(r1+1, []int{2, 3})
	g.SetNeighbors(r2, []int{4, 5})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// defective builds the paper §3.2 defect: two left nodes sharing exactly the
// same two right nodes ("17 [48,57] / 22 [48,57]"), scaled down. Losing both
// lefts is unrecoverable even with everything else present.
func defective(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	r1 := b.AddLevel(0, 4, 3)
	g := b.Graph()
	g.SetNeighbors(r1, []int{0, 1})   // shared check A
	g.SetNeighbors(r1+1, []int{0, 1}) // shared check B — the defect
	g.SetNeighbors(r1+2, []int{2, 3})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMirrorSingleLoss(t *testing.T) {
	g := mirror(4)
	d := New(g)
	for v := 0; v < g.Total; v++ {
		if !d.Recoverable([]int{v}) {
			t.Errorf("single loss of node %d should be recoverable", v)
		}
	}
}

func TestMirrorPairLoss(t *testing.T) {
	g := mirror(4)
	d := New(g)
	if d.Recoverable([]int{0, 4}) {
		t.Error("losing a data node and its mirror must lose data")
	}
	if !d.Recoverable([]int{0, 5}) {
		t.Error("losing a data node and an unrelated mirror must be fine")
	}
	if !d.Recoverable([]int{4, 5, 6, 7}) {
		t.Error("losing only mirrors never loses data")
	}
	if d.Recoverable([]int{0, 1, 4, 5}) {
		t.Error("two dead pairs must fail")
	}
}

func TestCascadeRecoversCheckFromBelow(t *testing.T) {
	g := cascade(t)
	d := New(g)
	// Lose data 0 and its only check 4. Check 4 is recomputable? No — it
	// needs data 0. But check 6 is present with left {4,5}; 5 present, so 4
	// is recovered from below, then 4 recovers data 0.
	if !d.Recoverable([]int{0, 4}) {
		t.Error("cascade should recover check 4 from level 2, then data 0")
	}
	// Erasing 0, 4, and 6 removes the recovery path.
	if d.Recoverable([]int{0, 4, 6}) {
		t.Error("erasing the whole recovery chain must fail")
	}
	// Erasing 0, 4, 5: check 6 has two missing lefts, can't help; 5 can be
	// recomputed from data 2,3, then 6 recovers 4, then 4 recovers 0.
	if !d.Recoverable([]int{0, 4, 5}) {
		t.Error("check 5 recomputation should unlock the chain")
	}
	// Two data under one check: unrecoverable only if the check's help is
	// exhausted: erase 0,1 → check 4 has two missing, no other coverage.
	if d.Recoverable([]int{0, 1}) {
		t.Error("two data nodes under a single degree-2 check must fail")
	}
}

func TestDefectiveClosedSet(t *testing.T) {
	g := defective(t)
	d := New(g)
	if d.Recoverable([]int{0, 1}) {
		t.Error("paper §3.2 closed-set defect: losing both lefts must fail")
	}
	if !d.Recoverable([]int{0}) || !d.Recoverable([]int{1}) {
		t.Error("single losses must be recoverable")
	}
	res := d.Decode([]int{0, 1})
	if res.OK {
		t.Fatal("Decode should fail")
	}
	if len(res.UnrecoveredData) != 2 || res.UnrecoveredData[0] != 0 || res.UnrecoveredData[1] != 1 {
		t.Errorf("UnrecoveredData = %v, want [0 1]", res.UnrecoveredData)
	}
}

func TestEraseDuplicatesAndResetIndependence(t *testing.T) {
	g := cascade(t)
	d := New(g)
	d.Erase(0, 0, 4, 4)
	d.Peel()
	if !d.AllDataPresent() {
		t.Error("duplicate erasures should behave like single erasures")
	}
	d.Reset()
	// After reset the decoder must be back at baseline: same query again.
	if !d.Recoverable([]int{0, 4}) {
		t.Error("decoder state leaked across Reset")
	}
	if d.Recoverable([]int{0, 1}) {
		t.Error("fail case after reset")
	}
	if !d.Recoverable([]int{2, 5}) {
		t.Error("recoverable case after a failing case")
	}
}

func TestMissingNodesReporting(t *testing.T) {
	g := defective(t)
	d := New(g)
	d.Erase(1, 0) // unordered on purpose
	d.Peel()
	if got := d.MissingData(nil); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("MissingData = %v", got)
	}
	all := d.MissingNodes(nil)
	if len(all) != 2 {
		t.Errorf("MissingNodes = %v", all)
	}
	d.Reset()
	d.Erase(0)
	d.Peel()
	if got := d.MissingData(nil); len(got) != 0 {
		t.Errorf("MissingData after recovery = %v", got)
	}
	d.Reset()
}

// TestErasePeelEraseAgain: a node erased, recovered by Peel and erased again
// is in the erase log twice; it must still count, and be reported, once.
func TestErasePeelEraseAgain(t *testing.T) {
	g := mirror(2)
	d := New(g)
	d.Erase(0)
	d.Peel() // recovered from its mirror
	d.Erase(0)
	d.Erase(2) // 0's mirror
	d.Peel()
	if d.AllDataPresent() {
		t.Error("re-erased node with dead mirror should fail")
	}
	if got := d.MissingData(nil); !slices.Equal(got, []int{0}) {
		t.Errorf("MissingData = %v, want [0]", got)
	}
	if got := d.MissingNodes([]int{7}); !slices.Equal(got, []int{7, 0, 2}) {
		t.Errorf("MissingNodes = %v, want [7 0 2]", got)
	}
	d.Reset()
	if !d.Recoverable(nil) {
		t.Error("baseline broken after erase/peel/erase cycle")
	}
}

// randomCascade builds a random multi-level graph for differential testing.
func randomCascade(rng *rand.Rand) *graph.Graph {
	data := 4 + rng.IntN(12)
	b := graph.NewBuilder(data)
	leftFirst, leftCount := 0, data
	levels := 1 + rng.IntN(3)
	for li := 0; li < levels; li++ {
		rightCount := max(1, leftCount/2)
		rf := b.AddLevel(leftFirst, leftCount, rightCount)
		leftFirst, leftCount = rf, rightCount
		if leftCount < 2 {
			break
		}
	}
	g := b.Graph()
	for _, lv := range g.Levels {
		for r := lv.RightFirst; r < lv.RightFirst+lv.RightCount; r++ {
			deg := 1 + rng.IntN(min(3, lv.LeftCount))
			perm := rng.Perm(lv.LeftCount)
			lefts := make([]int, 0, deg)
			for _, p := range perm[:deg] {
				lefts = append(lefts, lv.LeftFirst+p)
			}
			g.SetNeighbors(r, lefts)
		}
	}
	return g
}

// RandomCascade lends randomCascade to the external test package, whose
// stopping-set battery runs sim's exhaustive search.
var RandomCascade = randomCascade

// Property: the incremental decoder agrees with the naive reference on
// random graphs and random erasure patterns, including back-to-back calls
// on one decoder instance (exercising Reset). Whenever data is lost,
// Decode's reports must name exactly the reference fixpoint's residue: the
// peel's early exit (it stops once no data node is missing) must never cut
// short a peel that loses data.
func TestQuickDecoderMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		g := randomCascade(rng)
		d := New(g)
		for trial := 0; trial < 20; trial++ {
			k := rng.IntN(g.Total + 1)
			perm := rng.Perm(g.Total)
			erased := perm[:k]
			want, residue := referencePeel(g, erased)
			if d.Recoverable(erased) != want {
				t.Logf("mismatch: seed=%d graph=%v erased=%v", seed, g, erased)
				return false
			}
			res := d.Decode(erased)
			if want {
				if !res.OK || res.Unrecovered != nil || res.UnrecoveredData != nil {
					t.Logf("seed=%d erased=%v: recoverable but Decode = %+v", seed, erased, res)
					return false
				}
				continue
			}
			var residueData []int
			for _, v := range residue {
				if v < g.Data {
					residueData = append(residueData, v)
				}
			}
			if res.OK || !slices.Equal(res.Unrecovered, residue) || !slices.Equal(res.UnrecoveredData, residueData) {
				t.Logf("seed=%d graph=%v erased=%v: Decode = %+v, reference residue %v", seed, g, erased, res, residue)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Recoverable is monotone under adding available nodes — if a set
// S is recoverable, any subset of S is recoverable too.
func TestQuickMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		g := randomCascade(rng)
		d := New(g)
		perm := rng.Perm(g.Total)
		k := rng.IntN(g.Total + 1)
		erased := perm[:k]
		if d.Recoverable(erased) {
			// Any subset must also be recoverable.
			for drop := 0; drop < len(erased); drop++ {
				sub := append(append([]int{}, erased[:drop]...), erased[drop+1:]...)
				if !d.Recoverable(sub) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDecodeResultOKHasNoLists(t *testing.T) {
	g := cascade(t)
	d := New(g)
	res := d.Decode([]int{0})
	if !res.OK || res.Unrecovered != nil || res.UnrecoveredData != nil {
		t.Errorf("Decode OK result = %+v", res)
	}
}

func BenchmarkRecoverableK5(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := randomBench96(rng)
	d := New(g)
	erased := make([]int, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range erased {
			erased[j] = rng.IntN(g.Total)
		}
		d.Recoverable(erased)
	}
}

// randomBench96 builds a 96-node-scale cascade for benchmarking.
func randomBench96(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(48)
	r1 := b.AddLevel(0, 48, 24)
	r2 := b.AddLevel(r1, 24, 12)
	rA := b.AddLevel(r2, 12, 6)
	rB := b.AddLevel(r2, 12, 6)
	g := b.Graph()
	fill := func(first, count, leftFirst, leftCount int) {
		for r := first; r < first+count; r++ {
			deg := 3 + rng.IntN(3)
			perm := rng.Perm(leftCount)
			lefts := make([]int, 0, deg)
			for _, p := range perm[:deg] {
				lefts = append(lefts, leftFirst+p)
			}
			g.SetNeighbors(r, lefts)
		}
	}
	fill(r1, 24, 0, 48)
	fill(r2, 12, r1, 24)
	fill(rA, 6, r2, 12)
	fill(rB, 6, r2, 12)
	return g
}
