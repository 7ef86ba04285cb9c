package raid

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"tornado/internal/combin"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMirroredClosedForm(t *testing.T) {
	// Equation (1) closed form: 1 − C(n,k)·2^k/C(2n,k).
	for _, n := range []int{4, 8, 48} {
		for k := 0; k <= 2*n; k++ {
			var want float64
			if k > n {
				want = 1
			} else {
				want = 1 - combin.Binomial(n, k)*math.Pow(2, float64(k))/combin.Binomial(2*n, k)
			}
			if got := MirroredFailGivenK(n, k); !approx(got, want, 1e-12) {
				t.Fatalf("MirroredFailGivenK(%d,%d) = %.15f, want %.15f", n, k, got, want)
			}
		}
	}
}

func TestMirroredSmallCases(t *testing.T) {
	// 2 pairs, 4 drives: P(fail | 2) = 2/C(4,2) = 1/3.
	if got := MirroredFailGivenK(2, 2); !approx(got, 1.0/3, 1e-12) {
		t.Errorf("P(fail|2) = %v, want 1/3", got)
	}
	if got := MirroredFailGivenK(2, 0); got != 0 {
		t.Errorf("P(fail|0) = %v", got)
	}
	if got := MirroredFailGivenK(2, 4); got != 1 {
		t.Errorf("P(fail|4) = %v", got)
	}
}

func TestRAID5Formula(t *testing.T) {
	// 8 LUNs × 12 disks: P(ok | k) = C(8,k)·12^k / C(96,k) for k ≤ 8.
	for k := 0; k <= 8; k++ {
		want := 1 - combin.Binomial(8, k)*math.Pow(12, float64(k))/combin.Binomial(96, k)
		if got := RAID5FailGivenK(8, 12, k); !approx(got, want, 1e-12) {
			t.Errorf("RAID5FailGivenK(8,12,%d) = %.12f, want %.12f", k, got, want)
		}
	}
	// k = 9 guarantees some LUN has ≥ 2 failures.
	if got := RAID5FailGivenK(8, 12, 9); got != 1 {
		t.Errorf("P(fail|9) = %v, want 1", got)
	}
}

func TestRAID6FirstFailure(t *testing.T) {
	if got := RAID6FailGivenK(8, 12, 2); got != 0 {
		t.Errorf("RAID6 must tolerate any 2 losses, P = %v", got)
	}
	if got := RAID6FailGivenK(8, 12, 3); got <= 0 {
		t.Errorf("RAID6 can fail at 3 losses, P = %v", got)
	}
	// 17 losses guarantee a LUN with ≥ 3 (8 LUNs × 2 = 16 max safe).
	if got := RAID6FailGivenK(8, 12, 17); got != 1 {
		t.Errorf("P(fail|17) = %v, want 1", got)
	}
}

func TestStriping(t *testing.T) {
	if got := StripingFailGivenK(96, 0); got != 0 {
		t.Errorf("P(fail|0) = %v", got)
	}
	for _, k := range []int{1, 5, 96, 200} {
		if got := StripingFailGivenK(96, k); got != 1 {
			t.Errorf("P(fail|%d) = %v, want 1", k, got)
		}
	}
}

func TestGroupTolerancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range k did not panic")
		}
	}()
	GroupToleranceFailGivenK(8, 12, 1, -1)
}

// exactProfile is g's failure profile with a KeepGoing worst case through
// Total folded in: every point enumerated.
func exactProfile(t *testing.T, g *graph.Graph) *sim.Profile {
	t.Helper()
	p, err := sim.FailureProfileCtx(context.Background(), g, sim.ProfileOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: g.Total, MaxFailures: 1, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddExact(wc); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSimulatorMatchesMirroredTheory is the paper's §3 validation scaled to
// an exhaustively checkable size: the simulated mirrored-graph profile must
// match Equation (1) exactly (the paper reports agreement to ≥9 significant
// digits from sampling; enumeration makes it exact).
func TestSimulatorMatchesMirroredTheory(t *testing.T) {
	g := MirroredGraph(8)
	p := exactProfile(t, g)
	for k := 0; k <= 16; k++ {
		want := MirroredFailGivenK(8, k)
		if got := p.FailFraction(k); !approx(got, want, 1e-12) {
			t.Errorf("k=%d: simulated %.15f, Eq.(1) %.15f", k, got, want)
		}
	}
}

// raid5Graph expresses luns drawers of disksPerLUN drives as a parity
// graph: each drawer's parity disk is one XOR check over its disksPerLUN−1
// data disks, and drawer j owns data nodes [j·(disksPerLUN−1),
// (j+1)·(disksPerLUN−1)).
func raid5Graph(luns, disksPerLUN int) *graph.Graph {
	dataPer := disksPerLUN - 1
	b := graph.NewBuilder(luns * dataPer)
	r := b.AddLevel(0, luns*dataPer, luns)
	g := b.Graph()
	for j := 0; j < luns; j++ {
		lefts := make([]int, 0, dataPer)
		for i := 0; i < dataPer; i++ {
			lefts = append(lefts, j*dataPer+i)
		}
		g.SetNeighbors(r+j, lefts)
	}
	return g
}

// The simulated RAID5 graph must reproduce the analytic drawer formula.
func TestSimulatorMatchesRAID5Theory(t *testing.T) {
	// 3 LUNs × 4 disks = 9 data + 3 parity nodes.
	g := raid5Graph(3, 4)
	if g.Total != 12 || g.Data != 9 {
		t.Fatalf("graph shape: %v", g)
	}
	p := exactProfile(t, g)
	for k := 0; k <= 12; k++ {
		want := RAID5FailGivenK(3, 4, k)
		if got := p.FailFraction(k); !approx(got, want, 1e-12) {
			t.Errorf("k=%d: simulated %.15f, analytic %.15f", k, got, want)
		}
	}
}

// Property: P(fail|k) is nondecreasing in k and bounded in [0,1] for all
// schemes.
func TestQuickFailGivenKMonotone(t *testing.T) {
	f := func(groupSel, tolSel uint8) bool {
		groups := 2 + int(groupSel)%8
		perGroup := 2 + int(groupSel/8)%6
		tol := int(tolSel) % perGroup
		prev := 0.0
		for k := 0; k <= groups*perGroup; k++ {
			p := GroupToleranceFailGivenK(groups, perGroup, tol, k)
			if p < prev-1e-12 || p < 0 || p > 1+1e-12 {
				return false
			}
			prev = p
		}
		return prev == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMirroredDeadPairsPMF(t *testing.T) {
	// The summand form of Equation (1): the PMF over dead-pair counts must
	// normalize and its j>=1 mass must equal the closed-form failure
	// probability.
	for _, n := range []int{4, 8, 48} {
		for k := 0; k <= 2*n; k++ {
			sum, failMass := 0.0, 0.0
			for j := 0; j <= n; j++ {
				p := MirroredDeadPairsPMF(n, k, j)
				if p < -1e-15 {
					t.Fatalf("negative PMF n=%d k=%d j=%d: %v", n, k, j, p)
				}
				sum += p
				if j >= 1 {
					failMass += p
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("PMF(n=%d, k=%d) sums to %v", n, k, sum)
			}
			if want := MirroredFailGivenK(n, k); math.Abs(failMass-want) > 1e-9 {
				t.Fatalf("n=%d k=%d: sum form %v vs closed form %v", n, k, failMass, want)
			}
		}
	}
}

func TestMirroredDeadPairsPMFOutOfRange(t *testing.T) {
	if MirroredDeadPairsPMF(4, 2, -1) != 0 || MirroredDeadPairsPMF(4, 2, 2) != 0 {
		t.Error("out-of-range j should be 0")
	}
	// j such that leftover singles exceed remaining pairs.
	if MirroredDeadPairsPMF(2, 4, 1) != 0 {
		t.Error("infeasible configuration should be 0")
	}
}
