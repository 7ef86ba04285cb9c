package workload

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/obs"
	"tornado/internal/serve"
)

func TestZipfShape(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("negative exponent accepted")
	}
	z, err := NewZipf(100, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Sample(rng.Float64())]++
	}
	// Rank 0 dominates and the tail is still reachable.
	if counts[0] <= counts[10] || counts[0] <= counts[50] {
		t.Errorf("no head skew: c0=%d c10=%d c50=%d", counts[0], counts[10], counts[50])
	}
	tail := 0
	for _, c := range counts[50:] {
		tail += c
	}
	if tail == 0 {
		t.Error("tail never sampled")
	}
	// s=0 is uniform: head and tail within noise of each other.
	u, _ := NewZipf(100, 0)
	uc := make([]int, 100)
	for i := 0; i < 50000; i++ {
		uc[u.Sample(rng.Float64())]++
	}
	if ratio := float64(uc[0]) / float64(uc[99]); math.Abs(ratio-1) > 0.5 {
		t.Errorf("s=0 not uniform: head/tail ratio %v", ratio)
	}
	// Boundary variates stay in range.
	if k := z.Sample(0); k != 0 {
		t.Errorf("Sample(0) = %d", k)
	}
	if k := z.Sample(math.Nextafter(1, 0)); k < 0 || k > 99 {
		t.Errorf("Sample(1-ε) = %d out of range", k)
	}
}

func TestZipfDeterministic(t *testing.T) {
	a, _ := NewZipf(64, 1.3)
	b, _ := NewZipf(64, 1.3)
	r1 := rand.New(rand.NewPCG(9, 9))
	r2 := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 1000; i++ {
		if a.Sample(r1.Float64()) != b.Sample(r2.Float64()) {
			t.Fatal("same seed diverged")
		}
	}
}

// TestRunLoadUnderChaos drives the full stack the way production runs it:
// serve.Service over a chaos-injected store, a concurrent repair scrub
// underneath, Zipf reads with regeneration verification. The invariant is
// bit-exact-or-error: Corrupted must be zero no matter what the injector
// does.
func TestRunLoadUnderChaos(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(21, 1)))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	inj := chaos.Wrap(archive.NewArrayBackend(device.NewArray(g.Total)), chaos.Config{
		Seed:            31,
		BitFlipRate:     0.002,
		ReadCorruptRate: 0.002,
		ReadErrRate:     0.005,
		WriteErrRate:    0.002,
		Metrics:         reg,
	})
	st, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(st, serve.Config{CacheBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	scrubCtx, stopScrub := context.WithCancel(ctx)
	scrubDone := make(chan struct{})
	go func() {
		defer close(scrubDone)
		for scrubCtx.Err() == nil {
			_, _ = st.ScrubCtx(scrubCtx, true)
		}
	}()

	spec := LoadSpec{
		Tenants:      []string{"a", "b"},
		Objects:      16,
		ObjectSize:   4096,
		Ops:          200,
		Workers:      4,
		ReadFraction: 0.8,
		ZipfS:        1.1,
		Seed:         5,
	}
	res, err := RunLoad(ctx, svc, spec)
	stopScrub()
	<-scrubDone
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupted != 0 {
		t.Fatalf("%d silent corruptions under chaos load", res.Corrupted)
	}
	if res.Ops != spec.Ops {
		t.Errorf("ran %d ops, want %d", res.Ops, spec.Ops)
	}
	if res.Gets == 0 || res.Puts == 0 {
		t.Errorf("mix degenerate: %d gets, %d puts", res.Gets, res.Puts)
	}
	if res.GetP50 <= 0 || res.GetP999 < res.GetP99 || res.GetP99 < res.GetP50 {
		t.Errorf("percentiles not ordered: p50=%v p99=%v p999=%v", res.GetP50, res.GetP99, res.GetP999)
	}
	if res.OpsPerSec <= 0 {
		t.Errorf("OpsPerSec = %v", res.OpsPerSec)
	}
}

// TestRunLoadCancellation: a cancelled context stops the run and reports
// the ctx error rather than hanging.
func TestRunLoadCancellation(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(22, 1)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := archive.New(g, device.NewArray(g.Total), archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(st, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLoad(ctx, svc, LoadSpec{Objects: 2, ObjectSize: 256, Ops: 50}); err == nil {
		t.Fatal("cancelled RunLoad reported success")
	}
}

func TestExactPercentiles(t *testing.T) {
	if p50, p99, p999 := exactPercentiles(nil); p50 != 0 || p99 != 0 || p999 != 0 {
		t.Error("empty samples should yield zeros")
	}
	lats := make([]time.Duration, 1000)
	for i := range lats {
		lats[i] = time.Duration(i + 1)
	}
	p50, p99, p999 := exactPercentiles(lats)
	if p50 != 500 || p99 != 990 || p999 != 999 {
		t.Errorf("got p50=%d p99=%d p999=%d", p50, p99, p999)
	}
}
