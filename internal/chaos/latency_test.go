package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"tornado/internal/archive"
	"tornado/internal/device"
)

// stalledInjector wraps a four-node array whose every read stalls exactly d,
// with node 0 holding key "k".
func stalledInjector(t *testing.T, d time.Duration) *Injector {
	t.Helper()
	inj := Wrap(archive.NewArrayBackend(device.NewArray(4)), Config{
		Seed:            1,
		ReadLatencyRate: 1,
		LatencyMin:      d,
		LatencyMax:      d,
	})
	if err := inj.Write(context.Background(), 0, []byte("k"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestQuiesceEndsStalls(t *testing.T) {
	inj := stalledInjector(t, 30*time.Millisecond)
	// A direct backend read must take at least the stall.
	start := time.Now()
	if _, err := inj.Read(context.Background(), 0, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("stalled read took %v, want >= 30ms", d)
	}
	if got := inj.InjectedTotals()[ClassLatency]; got != 1 {
		t.Errorf("latency injections = %d, want 1", got)
	}
	inj.Quiesce()
	start = time.Now()
	if _, err := inj.Read(context.Background(), 0, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("quiesce left reads stalled: %v", d)
	}
}

func TestReadLatencyRespectsContext(t *testing.T) {
	inj := stalledInjector(t, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := inj.Read(ctx, 0, []byte("k"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled stall took %v — sleep ignored ctx", d)
	}
}

func TestLatencyRateDrawsAreSeeded(t *testing.T) {
	// Two injectors with the same seed and rates must stall the same ops
	// for the same durations (measured via the injected counter sequence,
	// not wall time).
	run := func() []int64 {
		devs := device.NewArray(4)
		inj := Wrap(archive.NewArrayBackend(devs), Config{
			Seed:            42,
			ReadLatencyRate: 0.3,
			LatencyMin:      time.Microsecond,
			LatencyMax:      50 * time.Microsecond,
		})
		key := []byte("k")
		_ = inj.Write(context.Background(), 0, key, []byte("x"))
		var counts []int64
		for i := 0; i < 60; i++ {
			_, _ = inj.Read(context.Background(), 0, key)
			counts = append(counts, inj.InjectedTotals()[ClassLatency])
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency schedule diverged at op %d: %d vs %d", i, a[i], b[i])
		}
	}
	if a[len(a)-1] == 0 {
		t.Error("rate 0.3 over 60 reads never injected latency")
	}
}

func TestLatencyRateZeroKeepsScheduleBackwardCompatible(t *testing.T) {
	// Adding the latency feature must not shift the randomness stream of
	// configs that do not use it: a schedule with zero latency rates must
	// match the pre-latency fingerprint behaviour, i.e. two configs that
	// differ only in latency rates being zero-vs-unset are identical.
	mk := func(cfg Config) []int64 {
		devs := device.NewArray(4)
		cfg.Seed = 7
		cfg.ReadErrRate = 0.3
		inj := Wrap(archive.NewArrayBackend(devs), cfg)
		key := []byte("k")
		_ = inj.Write(context.Background(), 0, key, []byte("x"))
		var errsAt []int64
		for i := 0; i < 80; i++ {
			if _, err := inj.Read(context.Background(), 0, key); err != nil {
				errsAt = append(errsAt, int64(i))
			}
		}
		return errsAt
	}
	a := mk(Config{})
	b := mk(Config{LatencyMin: time.Millisecond, LatencyMax: 2 * time.Millisecond}) // rates still zero
	if len(a) == 0 {
		t.Fatal("no transient errors injected")
	}
	if len(a) != len(b) {
		t.Fatalf("zero-rate latency config perturbed the schedule: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zero-rate latency config perturbed the schedule at %d", i)
		}
	}
}
