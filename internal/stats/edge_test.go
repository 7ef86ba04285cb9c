package stats

import (
	"math"
	"strings"
	"testing"
)

// TestWilsonEmptyTally pins the zero-trials contract: the interval is the
// vacuous (0, 1), never NaN, and String() prints finite numbers. A naive
// implementation divides by Trials and poisons every downstream report.
func TestWilsonEmptyTally(t *testing.T) {
	var p Proportion
	lo, hi := p.Wilson(1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty Wilson = (%v, %v), want (0, 1)", lo, hi)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(p.Estimate()) {
		t.Fatal("empty tally produced NaN")
	}
	s := p.String()
	if strings.Contains(s, "NaN") {
		t.Fatalf("empty tally String() = %q contains NaN", s)
	}
	if hw := p.WilsonHalfWidth(1.96); hw != 0.5 {
		t.Fatalf("empty WilsonHalfWidth = %v, want 0.5", hw)
	}
}

// TestWilsonHalfWidthMatchesInterval checks the half-width against the
// unclamped interval arithmetic where no clamping occurs, and pins the
// zero-hit shape (hw ~ z^2/2 / (n + z^2)) the stopping rule relies on.
func TestWilsonHalfWidthMatchesInterval(t *testing.T) {
	p := Proportion{Hits: 40, Trials: 100}
	lo, hi := p.Wilson(1.96)
	if got, want := p.WilsonHalfWidth(1.96), (hi-lo)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("half-width %v, want (hi-lo)/2 = %v", got, want)
	}
	// Zero hits: interval is [0, something]; half-width must still shrink
	// like 1/n so "CI half-width <= eps" terminates.
	z := 1.96
	for _, n := range []int64{100, 10000, 1000000} {
		p := Proportion{Hits: 0, Trials: n}
		want := z * z / 2 / (float64(n) + z*z)
		if got := p.WilsonHalfWidth(z); math.Abs(got-want) > 1e-15 {
			t.Fatalf("n=%d zero-hit half-width %v, want %v", n, got, want)
		}
	}
	// ~19.2k trials bring the zero-hit 95% half-width under 1e-4: the
	// planning identity behind the archival-scale epsilon default.
	if hw := (Proportion{Trials: 19209}).WilsonHalfWidth(1.96); hw > 1e-4 {
		t.Fatalf("19209 zero-hit trials give half-width %v > 1e-4", hw)
	}
	if hw := (Proportion{Trials: 19000}).WilsonHalfWidth(1.96); hw <= 1e-4 {
		t.Fatalf("19000 zero-hit trials give half-width %v <= 1e-4 (too loose)", hw)
	}
}

// TestPool checks that pooling post-stratified tallies is exactly the sum.
func TestPool(t *testing.T) {
	p := Pool(
		Proportion{Hits: 0, Trials: 500},
		Proportion{},
		Proportion{Hits: 3, Trials: 100},
	)
	if p.Hits != 3 || p.Trials != 600 {
		t.Fatalf("Pool = %d/%d, want 3/600", p.Hits, p.Trials)
	}
	if Pool() != (Proportion{}) {
		t.Fatal("empty Pool must be the zero tally")
	}
}
