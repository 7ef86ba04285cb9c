package reliability

import "fmt"

// MTTDL computes the mean time to data loss of an n-device system under a
// continuous-time birth–death repair model — the extension the paper's
// Table 5 sets aside ("no repair"). Devices fail independently at rate
// lambda; up to repairmen failed devices are rebuilt concurrently at rate
// mu each. The erasure code's measured profile failGivenK supplies the
// probability that a configuration of k failed devices has already lost
// data; conditioned on surviving k failures, the next failure is fatal
// with probability
//
//	q_k = (F(k+1) − F(k)) / (1 − F(k)).
//
// The chain's states are the non-fatal failure counts 0..kmax (kmax is the
// last k with F(k) < 1); absorption is data loss. The expected absorption
// time from the all-healthy state solves a tridiagonal first-step system.
//
// Units: lambda and mu are rates per the same time unit; the result is in
// that unit. For an annual failure rate a, lambda ≈ −ln(1−a) per year.
func MTTDL(n int, lambda, mu float64, repairmen int, failGivenK func(k int) float64) (float64, error) {
	if n < 1 || lambda <= 0 {
		return 0, fmt.Errorf("reliability: need n >= 1 and lambda > 0")
	}
	if mu < 0 || repairmen < 0 {
		return 0, fmt.Errorf("reliability: negative repair parameters")
	}
	if f0 := failGivenK(0); f0 > 0 {
		return 0, fmt.Errorf("reliability: profile reports failure with zero losses (%v)", f0)
	}

	// Last survivable state.
	kmax := 0
	for k := 0; k < n; k++ {
		if failGivenK(k) < 1 {
			kmax = k
		} else {
			break
		}
	}

	// First-step analysis: for k in 0..kmax,
	//   (a_k + d_k) T_k = 1 + u_k T_{k+1} + d_k T_{k-1}
	// with a_k the total failure rate, u_k = a_k (1 − q_k) the non-fatal
	// part, d_k the repair rate; T_{kmax+1} plays no role because from
	// kmax every further failure is fatal (u_kmax may still be nonzero if
	// F(kmax+1) < 1 — guard by clamping q to [0,1]).
	size := kmax + 1
	// Tridiagonal coefficients: sub[k] T_{k-1} + diag[k] T_k + sup[k] T_{k+1} = 1.
	sub := make([]float64, size)
	diag := make([]float64, size)
	sup := make([]float64, size)
	for k := 0; k <= kmax; k++ {
		ak := float64(n-k) * lambda
		dk := float64(min(k, repairmen)) * mu
		Fk := failGivenK(k)
		Fk1 := failGivenK(k + 1)
		qk := 0.0
		if Fk < 1 {
			qk = (Fk1 - Fk) / (1 - Fk)
		}
		if qk < 0 {
			qk = 0
		}
		if qk > 1 {
			qk = 1
		}
		uk := ak * (1 - qk)
		diag[k] = ak + dk
		if k > 0 {
			sub[k] = -dk
		}
		if k < kmax {
			sup[k] = -uk
		}
		// Transitions above kmax are fatal regardless; uk beyond kmax is
		// dropped, which is exactly "next failure kills".
		if diag[k] <= 0 {
			return 0, fmt.Errorf("reliability: absorbing non-fatal state %d (no failure or repair flow)", k)
		}
	}

	// Thomas algorithm.
	rhs := make([]float64, size)
	for i := range rhs {
		rhs[i] = 1
	}
	for k := 1; k < size; k++ {
		m := sub[k] / diag[k-1]
		diag[k] -= m * sup[k-1]
		rhs[k] -= m * rhs[k-1]
		if diag[k] == 0 {
			return 0, fmt.Errorf("reliability: singular chain at state %d", k)
		}
	}
	T := make([]float64, size)
	T[size-1] = rhs[size-1] / diag[size-1]
	for k := size - 2; k >= 0; k-- {
		T[k] = (rhs[k] - sup[k]*T[k+1]) / diag[k]
	}
	return T[0], nil
}
