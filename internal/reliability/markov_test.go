package reliability

import (
	"math"
	"math/big"
	"testing"

	"tornado/internal/raid"
)

// stripingProfile: any failure is fatal.
func stripingProfile(n int) func(int) float64 {
	return func(k int) float64 {
		if k >= 1 {
			return 1
		}
		return 0
	}
}

// singleParityProfile: one loss fine, two fatal (a single RAID5 LUN).
func singleParityProfile(k int) float64 {
	if k >= 2 {
		return 1
	}
	return 0
}

func TestMTTDLStripingNoRepair(t *testing.T) {
	// With every failure fatal, MTTDL is exactly the first-failure time
	// 1/(n·λ), repair irrelevant.
	n, lambda := 96, 0.01
	got, err := MTTDL(n, lambda, 100, 4, stripingProfile(n))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (float64(n) * lambda)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("MTTDL = %v, want %v", got, want)
	}
}

func TestMTTDLSingleParityClosedForm(t *testing.T) {
	// Classic 2-state chain for an m-disk single-parity array:
	//   T0 = 1/(mλ) + T1
	//   T1 = 1/((m−1)λ+μ) + μ/((m−1)λ+μ)·T0
	// Solve exactly and compare.
	m, lambda, mu := 12, 0.01, 52.0
	a0 := float64(m) * lambda
	a1 := float64(m-1) * lambda
	// T0 = 1/a0 + T1 ; T1 = (1 + mu·T0)/(a1+mu)
	// ⇒ T0·(1 − mu/(a1+mu)) = 1/a0 + 1/(a1+mu)
	// ⇒ T0 = (a1+mu)/(a0·a1) + 1/a1
	t0 := (a1+mu)/(a0*a1) + 1/a1
	got, err := MTTDL(m, lambda, mu, 1, singleParityProfile)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-t0) > 1e-9*t0 {
		t.Errorf("MTTDL = %v, closed form %v", got, t0)
	}
	// And the folklore approximation μ/(m(m−1)λ²) should be in the right
	// ballpark when μ >> λ.
	approx := mu / (float64(m*(m-1)) * lambda * lambda)
	if got < approx/2 || got > approx*2 {
		t.Errorf("MTTDL %v vs approximation %v", got, approx)
	}
}

func TestMTTDLRepairHelps(t *testing.T) {
	prof := func(k int) float64 { return raid.MirroredFailGivenK(48, k) }
	noRepair, err := MTTDL(96, 0.01, 0, 0, prof)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := MTTDL(96, 0.01, 12, 1, prof)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := MTTDL(96, 0.01, 52, 4, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !(noRepair < slow && slow < fast) {
		t.Errorf("MTTDL ordering wrong: %v, %v, %v", noRepair, slow, fast)
	}
}

func TestMTTDLTornadoBeatsMirroringWithRepair(t *testing.T) {
	// A first-failure-5 profile (tornado-like) must yield a vastly larger
	// MTTDL than mirroring at the same repair rate.
	tornadoLike := func(k int) float64 {
		switch {
		case k < 5:
			return 0
		case k == 5:
			return 14.0 / 61124064
		default:
			f := 1e-5 * math.Pow(4, float64(k-6))
			if f > 1 {
				f = 1
			}
			return f
		}
	}
	mirror := func(k int) float64 { return raid.MirroredFailGivenK(48, k) }
	tm, err := MTTDL(96, 0.01, 12, 1, tornadoLike)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := MTTDL(96, 0.01, 12, 1, mirror)
	if err != nil {
		t.Fatal(err)
	}
	if tm < 100*mm {
		t.Errorf("tornado MTTDL %v not >> mirrored %v", tm, mm)
	}
}

func TestMTTDLValidation(t *testing.T) {
	prof := stripingProfile(4)
	if _, err := MTTDL(0, 0.01, 1, 1, prof); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := MTTDL(4, 0, 1, 1, prof); err == nil {
		t.Error("lambda=0 accepted")
	}
	if _, err := MTTDL(4, 0.01, -1, 1, prof); err == nil {
		t.Error("negative mu accepted")
	}
	if _, err := MTTDL(4, 0.01, 1, 1, func(int) float64 { return 0.5 }); err == nil {
		t.Error("F(0)>0 accepted")
	}
}

func TestMTTDLNoRepairMatchesSimulatedExpectation(t *testing.T) {
	// Without repair, MTTDL = E[time of the fatal failure]. For the
	// mirrored profile this equals Σ over k of (expected holding times
	// weighted by survival) — cross-check against a direct chain
	// evaluation with a different method: numerically integrate survival
	// using the embedded discrete chain.
	n, lambda := 8, 0.05
	prof := func(k int) float64 { return raid.MirroredFailGivenK(4, k) }
	got, err := MTTDL(n, lambda, 0, 0, prof)
	if err != nil {
		t.Fatal(err)
	}
	// Direct: T_k = 1/((n−k)λ) + (1−q_k)·T_{k+1}, computed backwards.
	T := 0.0
	for k := n - 1; k >= 0; k-- {
		Fk, Fk1 := prof(k), prof(k+1)
		if Fk >= 1 {
			T = 0
			continue
		}
		q := (Fk1 - Fk) / (1 - Fk)
		if k+1 > n-1 && Fk1 < 1 {
			q = 1 // beyond the chain everything is fatal
		}
		T = 1/(float64(n-k)*lambda) + (1-q)*T
	}
	if math.Abs(got-T) > 1e-9*T {
		t.Errorf("MTTDL = %v, backward recursion %v", got, T)
	}
}

func TestAnnualLossProbability(t *testing.T) {
	if got := AnnualLossProbability(0); got != 1 {
		t.Errorf("MTTDL 0 → %v", got)
	}
	if got := AnnualLossProbability(100); math.Abs(got-(1-math.Exp(-0.01))) > 1e-12 {
		t.Errorf("MTTDL 100y → %v", got)
	}
	if AnnualLossProbability(1e9) > 1e-8 {
		t.Error("huge MTTDL should give tiny probability")
	}
}

// thomasMTTDL is the Thomas-algorithm solve of MTTDL's first-step system
// that MTTDL used before its subtraction-free elimination — forward
// elimination, then back substitution — carried out in big.Float at prec
// bits: at 53 every operation rounds as the float64 solve's did, so it is
// that solve (the oracle MTTDL is pinned to where it was well conditioned);
// at 256 it is exact to far beyond float64 however the forward sweep
// cancels. The q_k are float64 inputs either way, as in MTTDL.
func thomasMTTDL(prec uint, n int, lambda, mu float64, repairmen int, failGivenK func(k int) float64) float64 {
	num := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	mul := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Mul(x, y) }
	kmax := 0
	for k := 0; k < n && failGivenK(k) < 1; k++ {
		kmax = k
	}
	size := kmax + 1
	sub, diag, sup, rhs := make([]*big.Float, size), make([]*big.Float, size), make([]*big.Float, size), make([]*big.Float, size)
	for k := 0; k <= kmax; k++ {
		ak := mul(num(float64(n-k)), num(lambda))
		dk := mul(num(float64(min(k, repairmen))), num(mu))
		Fk, Fk1 := failGivenK(k), failGivenK(k+1)
		qk := min(max((Fk1-Fk)/(1-Fk), 0), 1)
		diag[k], rhs[k] = new(big.Float).SetPrec(prec).Add(ak, dk), num(1)
		sub[k], sup[k] = dk.Neg(dk), num(0)
		if k < kmax {
			sup[k] = mul(ak, num(1-qk))
			sup[k].Neg(sup[k])
		}
	}
	for k := 1; k < size; k++ {
		m := new(big.Float).SetPrec(prec).Quo(sub[k], diag[k-1])
		diag[k].Sub(diag[k], mul(m, sup[k-1]))
		rhs[k].Sub(rhs[k], mul(m, rhs[k-1]))
	}
	T := new(big.Float).SetPrec(prec).Quo(rhs[size-1], diag[size-1])
	for k := size - 2; k >= 0; k-- {
		x := mul(sup[k], T)
		T = x.Quo(x.Sub(rhs[k], x), diag[k])
	}
	f, _ := T.Float64()
	return f
}

// operationsProfile is the failure profile examples/operations reads for
// tornado96-1 — 4,000 arrival orders at seed 1, the exhaustive worst case
// to k = 5 folded in — as a fixed table of F(k): 16 failing 5-sets of
// C(96, 5), then the sampled orders' failures out of 4,000 from k = 13
// (none at 6..12), and 1 from k = 46 on.
func operationsProfile(k int) float64 {
	sampled := []int64{1, 1, 4, 7, 10, 12, 27, 38, 47, 57, 78, 109, 151, 196, 252, 324,
		447, 554, 721, 893, 1113, 1392, 1695, 2020, 2395, 2728, 3025, 3352, 3591, 3786,
		3899, 3962, 3986} // k = 13..45
	switch {
	case k == 5:
		return 16.0 / 61124064
	case k >= 13 && k <= 45:
		return float64(sampled[k-13]) / 4000
	case k >= 46:
		return 1
	}
	return 0
}

// TestMTTDLMatchesThomasSolve pins MTTDL to the Thomas solve it replaced.
// On the RAID rows of the MTTDL table (striping, RAID5 and RAID6 8x12,
// mirrored) under the table's three repair policies the float64 solve was
// well conditioned: MTTDL must equal it, and the exact solve, to 1e-9
// relative. On examples/operations' tornado96-1 profile (operationsProfile;
// the example prints 46.7 years without repair and 1.17e+11 with monthly
// rebuilds) the float64 solve had already lost its sixth digit with repair
// (6.5e-6 relative): MTTDL must equal the exact solve to 1e-9 and the
// float64 one to 1e-5.
func TestMTTDLMatchesThomasSolve(t *testing.T) {
	check := func(name string, lambda, mu float64, repairmen int, prof func(int) float64, oldTol float64) {
		t.Helper()
		got, err := MTTDL(96, lambda, mu, repairmen, prof)
		if err != nil {
			t.Fatal(err)
		}
		if exact := thomasMTTDL(256, 96, lambda, mu, repairmen, prof); math.Abs(got-exact) > 1e-9*exact {
			t.Errorf("%s mu=%v x%d: MTTDL %v, exact solve %v", name, mu, repairmen, got, exact)
		}
		if old := thomasMTTDL(53, 96, lambda, mu, repairmen, prof); math.Abs(got-old) > oldTol*old {
			t.Errorf("%s mu=%v x%d: MTTDL %v, float64 solve %v", name, mu, repairmen, got, old)
		}
	}
	lambda := -math.Log(1 - 0.01)
	rows := map[string]func(int) float64{
		"Striping":     func(k int) float64 { return raid.StripingFailGivenK(96, k) },
		"RAID5 (8x12)": func(k int) float64 { return raid.RAID5FailGivenK(8, 12, k) },
		"RAID6 (8x12)": func(k int) float64 { return raid.RAID6FailGivenK(8, 12, k) },
		"Mirrored":     func(k int) float64 { return raid.MirroredFailGivenK(48, k) },
	}
	for name, prof := range rows {
		for _, pol := range []struct {
			mu        float64
			repairmen int
		}{{0, 0}, {12, 1}, {52, 4}} {
			check(name, lambda, pol.mu, pol.repairmen, prof, 1e-9)
		}
	}

	for _, pol := range []struct {
		mu        float64
		repairmen int
	}{{0, 0}, {12, 1}} {
		check("examples/operations", 0.01, pol.mu, pol.repairmen, operationsProfile, 1e-5)
	}
}

// TestMTTDLPositiveAndMonotone is the regression test for the cancelling
// solve: n=96 at AFR 1% with one repairman, a profile that reads 0 below
// its first failure and 1 from there, first failure 10, 12 or 14, rebuilt
// 12, 52 or 365 times a year. The float64 Thomas solve returned −7.26e16
// years at 52 rebuilds a year from a first failure of 12 or 14, and a
// 5.96e16 ceiling at 365 whatever the first failure. MTTDL must equal the
// exact solve to 1e-9, be positive and rise with the first failure and
// with the rebuild rate; without repair it is the mean time to the
// first-failure-th failure, Σ 1/((n−k)λ).
func TestMTTDLPositiveAndMonotone(t *testing.T) {
	const n = 96
	lambda := -math.Log(1 - 0.01)
	prev := map[float64]float64{}
	for _, ff := range []int{10, 12, 14} {
		step := func(k int) float64 {
			if k < ff {
				return 0
			}
			return 1
		}
		noRepair, err := MTTDL(n, lambda, 0, 0, step)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for k := 0; k < ff; k++ {
			want += 1 / (float64(n-k) * lambda)
		}
		if math.Abs(noRepair-want) > 1e-12*want {
			t.Errorf("ff=%d no repair: MTTDL %v, want %v", ff, noRepair, want)
		}
		below := noRepair
		for _, mu := range []float64{12, 52, 365} {
			m, err := MTTDL(n, lambda, mu, 1, step)
			if err != nil {
				t.Fatal(err)
			}
			if exact := thomasMTTDL(256, n, lambda, mu, 1, step); math.Abs(m-exact) > 1e-9*exact {
				t.Errorf("ff=%d mu=%v: MTTDL %.6g years, exact solve %.6g", ff, mu, m, exact)
			}
			if !(m > below) || math.IsInf(m, 0) {
				t.Errorf("ff=%d mu=%v: MTTDL %.4g years, not above %.4g at the slower rebuild", ff, mu, m, below)
			}
			if p, ok := prev[mu]; ok && !(m > p) {
				t.Errorf("ff=%d mu=%v: MTTDL %.4g years, not above %.4g at first failure %d", ff, mu, m, p, ff-2)
			}
			below, prev[mu] = m, m
		}
	}
}
