package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestProportion(t *testing.T) {
	var p Proportion
	if got := p.Estimate(); got != 0 {
		t.Errorf("empty estimate = %v", got)
	}
	lo, hi := p.Wilson(1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty Wilson = [%v,%v]", lo, hi)
	}
	p.Add(14, 61124064)
	if !approx(p.Estimate(), 14.0/61124064, 1e-15) {
		t.Errorf("estimate = %v", p.Estimate())
	}
	lo, hi = p.Wilson(1.96)
	if lo < 0 || hi > 1 || lo > p.Estimate() || hi < p.Estimate() {
		t.Errorf("Wilson interval [%v,%v] does not bracket %v", lo, hi, p.Estimate())
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}

func TestWilsonHalfAndHalf(t *testing.T) {
	p := Proportion{Hits: 500, Trials: 1000}
	lo, hi := p.Wilson(1.96)
	if !approx(lo, 0.469, 0.003) || !approx(hi, 0.531, 0.003) {
		t.Errorf("Wilson(0.5, n=1000) = [%v,%v]", lo, hi)
	}
}

// Property: Wilson interval always contains the point estimate and stays in
// [0,1] for any tally.
func TestQuickWilsonBrackets(t *testing.T) {
	f := func(hits, trials uint32) bool {
		n := int64(trials%100000) + 1
		h := int64(hits) % (n + 1)
		p := Proportion{Hits: h, Trials: n}
		lo, hi := p.Wilson(1.96)
		e := p.Estimate()
		return lo >= 0 && hi <= 1 && lo <= e+1e-12 && hi >= e-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
