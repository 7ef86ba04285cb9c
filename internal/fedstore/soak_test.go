package fedstore

import (
	"reflect"
	"runtime"
	"testing"
)

func TestDisasterSoakConverges(t *testing.T) {
	rep, err := SoakCtx(ctx, SoakConfig{Seed: 1})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Puts == 0 || rep.Gets == 0 {
		t.Errorf("degenerate storm: %d puts, %d gets", rep.Puts, rep.Gets)
	}
	// A full site wipe must have moved real bytes to the victim.
	if rep.Repair.Exchange.BytesWritten == 0 {
		t.Error("victim repair wrote zero bytes")
	}
	if rep.WANInjected["site_loss"] == 0 {
		t.Error("no site loss recorded — the disaster never happened")
	}
	if rep.VerifiedReads == 0 {
		t.Error("nothing verified post-restore")
	}
}

func TestDisasterSoakDeterministic(t *testing.T) {
	a, err := SoakCtx(ctx, SoakConfig{Seed: 42, Ops: 120, Objects: 4})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	b, err := SoakCtx(ctx, SoakConfig{Seed: 42, Ops: 120, Objects: 4})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same seed, different fingerprints: %.12s vs %.12s", a.Fingerprint, b.Fingerprint)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	// A Put reaches its sites at once, but each site's calls keep their
	// order, so the report must not depend on how many cores run them.
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		p, err := SoakCtx(ctx, SoakConfig{Seed: 42, Ops: 120, Objects: 4})
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: harness: %v", procs, err)
		}
		if p.Fingerprint != a.Fingerprint {
			t.Errorf("GOMAXPROCS %d: fingerprint %.12s, want %.12s", procs, p.Fingerprint, a.Fingerprint)
		}
	}
	c, err := SoakCtx(ctx, SoakConfig{Seed: 43, Ops: 120, Objects: 4})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Error("different seeds produced identical fingerprints")
	}
}

func TestDisasterSoakSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in short mode")
	}
	for seed := uint64(2); seed <= 4; seed++ {
		rep, err := SoakCtx(ctx, SoakConfig{Seed: seed, Ops: 160, Objects: 4})
		if err != nil {
			t.Fatalf("seed %d harness: %v", seed, err)
		}
		if err := rep.Check(); err != nil {
			t.Error(err)
		}
	}
}

// TestDisasterSoakFingerprintsPinned holds the disaster campaign's outcome
// log byte for byte: the fingerprints were re-captured when Gets stopped
// reading a short stripe's zero padding. Node-level chaos at the survivors
// draws its faults in backend-operation order, so any change to what a Get, a
// scrub or RepairSite reads, and in which order, moves them.
func TestDisasterSoakFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  SoakConfig
		want string
	}{
		{SoakConfig{Seed: 1}, "d0a5ce1a9dbb437cdd6640add455a3b05f3549b43047a5c7969d06d77970f291"},
		{SoakConfig{Seed: 42, Ops: 120, Objects: 4}, "3d6489e3cf80c89cfbae09d667706e6d566e5bfc1e6b72ee1e252ead4c710c61"},
		{SoakConfig{Seed: 3, Ops: 160, Objects: 4}, "731cf57e495b667172d9b3b295841c8388166a5478c66410a8b2118942af86cc"},
	} {
		rep, err := SoakCtx(ctx, tc.cfg)
		if err != nil {
			t.Fatalf("seed %d: harness: %v", tc.cfg.Seed, err)
		}
		if rep.Fingerprint != tc.want {
			t.Errorf("seed %d: fingerprint %s, want %s", tc.cfg.Seed, rep.Fingerprint, tc.want)
		}
	}
}
