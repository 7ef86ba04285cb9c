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
// log byte for byte: the fingerprints were re-captured when a Get whose plan
// meets a rotten or unreadable frame began to re-plan around it instead of
// sweeping the stripe, and when a repair began to know a short stripe's zero
// padding instead of asking a donor for it. Node-level chaos at the survivors
// draws its faults in backend-operation order, so any change to what a Get, a
// scrub or RepairSite reads, and in which order, moves them.
func TestDisasterSoakFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  SoakConfig
		want string
	}{
		{SoakConfig{Seed: 1}, "146d7515a27240bf8426823196622447395ee2626d2a2df5fcb0b9a96717325a"},
		{SoakConfig{Seed: 42, Ops: 120, Objects: 4}, "ceda51843198b38d3ceb7b70a4a33f216f67210070de4ebb6c4317f7ba09223c"},
		{SoakConfig{Seed: 3, Ops: 160, Objects: 4}, "53d62b0d7632fbeae3a694789dbc8c81a35b6fac005f21818265edd20aed2330"},
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
