package soak

import (
	"context"
	"testing"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

// TestSoakInvariants runs ten seeded chaos campaigns over the array
// backend and enforces the end-to-end invariants on each: zero silent
// corruption, detection exactly matching served corruption, and
// post-campaign convergence to zero missing blocks.
func TestSoakInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep, err := RunCtx(ctx, Config{Seed: seed, Ops: 300})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := rep.Check(); err != nil {
				t.Errorf("%v\nreport: %+v", err, rep)
			}
			if rep.ServedCorrupt == 0 {
				t.Errorf("seed %d: campaign injected no corruption; rates too low to mean anything", seed)
			}
			if rep.VerifiedObjects != rep.Puts {
				t.Errorf("seed %d: verified %d of %d objects", seed, rep.VerifiedObjects, rep.Puts)
			}
		})
	}
}

// TestSoakMAID runs campaigns over the power-managed shelf backend: the
// chaos layer composes over MAID, and the invariants hold there too.
func TestSoakMAID(t *testing.T) {
	for seed := uint64(21); seed <= 23; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep, err := RunCtx(ctx, Config{Seed: seed, Ops: 200, MAID: true})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := rep.Check(); err != nil {
				t.Errorf("%v\nreport: %+v", err, rep)
			}
		})
	}
}

// TestSoakDeterminism: the same seed must produce the identical fault
// schedule and the identical outcome, fingerprint included.
func TestSoakDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, Ops: 250}
	a, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("fingerprints diverged: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if a.Gets != b.Gets || a.Puts != b.Puts || a.DataLossGets != b.DataLossGets ||
		a.ServedCorrupt != b.ServedCorrupt || a.DetectedCorrupt != b.DetectedCorrupt {
		t.Errorf("outcomes diverged:\n%+v\n%+v", a, b)
	}
	for class, n := range a.Injected {
		if b.Injected[class] != n {
			t.Errorf("class %s: %d vs %d", class, n, b.Injected[class])
		}
	}

	// A different seed must produce a different schedule (fingerprints
	// collide only if the campaign ignored the seed).
	c, err := RunCtx(ctx, Config{Seed: 100, Ops: 250})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Error("different seeds produced identical campaigns")
	}
}

// TestSoakHeavySchedule pushes the rates far past the design envelope.
// Convergence to zero-missing is forfeit out here — damage between scrubs
// can exceed the graph's tolerance, and that loss is real — but the
// detection invariants are rate-independent: every Get is bit-exact or a
// definitive error, and every corrupt frame served is detected.
func TestSoakHeavySchedule(t *testing.T) {
	faults := DefaultFaults()
	faults.BitFlipRate = 0.05
	faults.ReadCorruptRate = 0.05
	faults.TruncateRate = 0.02
	faults.TornWriteRate = 0.02
	faults.ReadErrRate = 0.08
	rep, err := RunCtx(ctx, Config{Seed: 7, Ops: 250, Faults: faults, ScrubEvery: 24})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SilentCorruptions != 0 {
		t.Errorf("%d silent corruptions under heavy schedule\nreport: %+v", rep.SilentCorruptions, rep)
	}
	if rep.DetectedCorrupt != rep.ServedCorrupt {
		t.Errorf("detected %d corrupt frames, injector served %d", rep.DetectedCorrupt, rep.ServedCorrupt)
	}
	if rep.ReadRepairs == 0 {
		t.Error("heavy schedule triggered no read-repair")
	}
	if rep.DataLossGets == 0 {
		t.Error("heavy schedule produced no definitive data-loss errors; rates are not heavy")
	}
}

// TestSoakFingerprintsPinned holds the campaign outcome log byte for byte,
// over the array and the MAID backend: the fingerprints were re-captured
// when a Get that finds no plan began to retry the nodes it priced out for
// an error instead of sweeping the stripe. The injector draws its
// faults in backend-operation order, so a read path that issues one read
// more, one fewer or one in another place — or an injector whose ReadInto
// consumes randomness differently from its Read — moves every one of them.
func TestSoakFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Seed: 1}, "180dbcad7266d793a4b2fb96e686b90fda42450c47ed1453e3eb00859a5871d5"},
		{Config{Seed: 2}, "5bcbb3da74fde5cb135e8f71a96eeb96054205bd6a37848931a8608f040fbb7d"},
		{Config{Seed: 3, MAID: true}, "04c63d44feb8ab16ef7ecd1342d9972290841496f2abb3f90b01e7133a8e26a4"},
		{Config{Seed: 7, Ops: 200}, "d8224aa34c6421f3037c63121f16756a538ae08d54f046eb36abeec8444d631d"},
	} {
		rep, err := RunCtx(ctx, tc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.cfg.Seed, err)
		}
		if rep.Fingerprint != tc.want {
			t.Errorf("seed %d (MAID %v): fingerprint %s, want %s", tc.cfg.Seed, tc.cfg.MAID, rep.Fingerprint, tc.want)
		}
	}
}
