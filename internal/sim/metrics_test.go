package sim

import (
	"context"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/obs"
)

func TestMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	old := Metrics()
	SetMetrics(reg)
	defer SetMetrics(old)

	g := ctxTestGraph(t)
	kr, err := ExhaustiveKCtx(context.Background(), g, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricCombinationsTested).Value(); got != kr.Tested {
		t.Errorf("%s = %d, want %d", MetricCombinationsTested, got, kr.Tested)
	}
	if got := reg.Counter(MetricFailuresFound).Value(); got != kr.FailureCount {
		t.Errorf("%s = %d, want %d", MetricFailuresFound, got, kr.FailureCount)
	}

	// An order block counts its orders, and as failures the orders still
	// undecoded with k nodes to arrive.
	hist, err := newOrderSampler(decode.NewCSR(g)).sample(context.Background(), 40, 40, 500, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricMCTrials).Value(); got != 500 {
		t.Errorf("%s = %d, want 500", MetricMCTrials, got)
	}
	if got, want := reg.Counter(MetricMCFailures).Value(), hist[len(hist)-1]; got != want || want == 0 {
		t.Errorf("%s = %d, want %d (> 0)", MetricMCFailures, got, want)
	}
	// SetMetrics(nil) must be a no-op, not a nil registry.
	SetMetrics(nil)
	if Metrics() != reg {
		t.Error("SetMetrics(nil) replaced the registry")
	}
}

func TestScanRangeMatchesExhaustive(t *testing.T) {
	// Scanning the rank space in arbitrary range splits must reproduce the
	// whole-space result — the invariant campaign sharding rests on.
	g := ctxTestGraph(t)
	const k = 2
	total, ok := combin.BinomialInt64(g.Total, k)
	if !ok {
		t.Fatal("rank space overflow")
	}
	whole, err := ExhaustiveKCtx(context.Background(), g, k, int(total), 4)
	if err != nil {
		t.Fatal(err)
	}
	var count, tested int64
	for _, rg := range combin.SplitRanges(total, 7) {
		rr, err := ScanRangeCtx(context.Background(), g, k, rg[0], rg[1], 16)
		if err != nil {
			t.Fatal(err)
		}
		count += rr.FailureCount
		tested += rr.Tested
	}
	if tested != whole.Tested || count != whole.FailureCount {
		t.Errorf("split scan: tested=%d fails=%d, whole: tested=%d fails=%d",
			tested, count, whole.Tested, whole.FailureCount)
	}
}

func TestScanRangeRejectsBadRange(t *testing.T) {
	g := ctxTestGraph(t)
	total, _ := combin.BinomialInt64(g.Total, 2)
	cases := [][2]int64{{-1, 5}, {0, total + 1}, {5, 4}}
	for _, c := range cases {
		if _, err := ScanRangeCtx(context.Background(), g, 2, c[0], c[1], 1); err == nil {
			t.Errorf("range %v accepted", c)
		}
	}
	if rr, err := ScanRangeCtx(context.Background(), g, 2, 5, 5, 1); err != nil || rr.Tested != 0 {
		t.Errorf("empty range: %+v, %v", rr, err)
	}
}
