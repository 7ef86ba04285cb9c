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
// time from the all-healthy state solves a tridiagonal first-step system,
// eliminated from the top state down without a subtraction, so the result
// is positive and accurate however rarely the chain is absorbed.
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

	// First-step analysis: for k in 0..kmax, with a_k the total failure
	// rate, u_k = a_k·(1 − q_k) its non-fatal and f_k = a_k·q_k its fatal
	// part, d_k the repair rate,
	//   (u_k + f_k + d_k)·T_k = 1 + u_k·T_{k+1} + d_k·T_{k−1}.
	// From kmax every further failure is fatal: u_kmax = 0, f_kmax = a_kmax
	// (q is clamped to [0,1] below it). Top-down, T_k = α_k + (1 − γ_k)·T_{k−1}
	// with γ_k the probability that the chain, entering k from below, is
	// absorbed before it first steps back down:
	//   D_k = u_k·γ_{k+1} + f_k + d_k,
	//   γ_k = (u_k·γ_{k+1} + f_k) / D_k,
	//   α_k = (1 + u_k·α_{k+1}) / D_k,
	// and d_0 = 0 makes MTTDL = T_0 = α_0. Every term is a sum of
	// nonnegative ones, so nothing cancels: a Thomas solve of the same
	// system subtracts d_k·u_{k−1}/D_{k−1} from D_k, which loses every
	// digit when q_k ≈ 0 over many states (it returned negative MTTDLs).
	var alpha, gamma float64 // α_{k+1}, γ_{k+1}; unused at kmax, where u = 0
	for k := kmax; k >= 0; k-- {
		ak := float64(n-k) * lambda
		dk := float64(min(k, repairmen)) * mu
		qk := 1.0
		if k < kmax {
			Fk, Fk1 := failGivenK(k), failGivenK(k+1)
			qk = min(max((Fk1-Fk)/(1-Fk), 0), 1)
		}
		uk, fk := ak*(1-qk), ak*qk
		D := uk*gamma + fk + dk
		if !(D > 0) {
			return 0, fmt.Errorf("reliability: absorbing non-fatal state %d (no failure or repair flow)", k)
		}
		gamma = (uk*gamma + fk) / D
		alpha = (1 + uk*alpha) / D
	}
	return alpha, nil
}
