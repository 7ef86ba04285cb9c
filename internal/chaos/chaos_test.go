package chaos

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/graph"
	"tornado/internal/obs"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

// testGraph builds a small screened tornado graph (32 nodes, 16 data).
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	p := core.DefaultParams()
	p.TotalNodes = 32
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(7, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stack builds devices → injector → store sharing one metrics registry.
func stack(t *testing.T, g *graph.Graph, chaosCfg Config, storeCfg archive.Config) (*Injector, *archive.Store, *obs.Registry, device.Array) {
	t.Helper()
	reg := obs.NewRegistry()
	devs := device.NewArray(g.Total)
	chaosCfg.Metrics = reg
	inj := Wrap(archive.NewArrayBackend(devs), chaosCfg)
	storeCfg.Metrics = reg
	store, err := archive.NewWithBackend(g, inj, storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj, store, reg, devs
}

func payload(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

func TestZeroConfigIsTransparent(t *testing.T) {
	g := testGraph(t)
	inj, store, _, _ := stack(t, g, Config{Seed: 1}, archive.Config{BlockSize: 32})
	data := payload(700, 1)
	if err := store.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	got, stats, err := store.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	if stats.CorruptBlocks != 0 || stats.Retries != 0 {
		t.Errorf("zero-config injector perturbed the read: %+v", stats)
	}
	if inj.ServedCorrupt() != 0 || inj.Outstanding() != 0 {
		t.Error("zero-config injector recorded injections")
	}
}

// TestReadRepairHealsCorruptFrame is the read-repair acceptance check: a
// block corrupted at rest is detected during Get, rewritten to its home
// node during the same Get, and the subsequent scrub finds nothing to
// repair for that stripe. Node 0 is a data node, so a healthy stripe's
// planned read touches it: detection is guaranteed.
func TestReadRepairHealsCorruptFrame(t *testing.T) {
	g := testGraph(t)
	inj, store, reg, _ := stack(t, g, Config{Seed: 2}, archive.Config{BlockSize: 32})
	data := payload(500, 2)
	if err := store.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	if err := inj.CorruptStored(0, "obj/0/0"); err != nil {
		t.Fatal(err)
	}
	if inj.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", inj.Outstanding())
	}

	got, stats, err := store.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get over corrupt frame: %v", err)
	}
	if stats.CorruptBlocks != 1 {
		t.Errorf("CorruptBlocks = %d, want 1", stats.CorruptBlocks)
	}
	if stats.ReadRepairs != 1 {
		t.Errorf("ReadRepairs = %d, want 1", stats.ReadRepairs)
	}
	if inj.Outstanding() != 0 {
		t.Errorf("outstanding = %d after read-repair, want 0", inj.Outstanding())
	}
	if n := reg.Counter("archive.detected.corrupt_frames").Value(); n != 1 {
		t.Errorf("detected = %d, want 1", n)
	}

	// The scrub after the healing Get has nothing left to do.
	rep, err := store.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired != 0 || rep.CorruptFrames != 0 {
		t.Errorf("scrub after read-repair: %+v", rep)
	}
	// And the healed frame serves clean reads.
	if _, stats, err := store.GetCtx(ctx, "obj"); err != nil || stats.CorruptBlocks != 0 {
		t.Errorf("post-heal Get: err=%v stats=%+v", err, stats)
	}
}

// TestDetectedEqualsServed asserts the checksum-detection invariant: every
// corrupt frame the injector serves is detected by the archive — the
// detection counter exactly equals the served-corrupt counter.
func TestDetectedEqualsServed(t *testing.T) {
	g := testGraph(t)
	inj, store, reg, _ := stack(t, g, Config{
		Seed:            3,
		ReadCorruptRate: 0.08,
		TruncateRate:    0.05,
		BitFlipRate:     0.04,
		TornWriteRate:   0.03,
	}, archive.Config{BlockSize: 32, QuarantineThreshold: -1}) // no quarantine: keep every node serving

	var want [][]byte
	for i := 0; i < 6; i++ {
		data := payload(400+i*97, uint64(i))
		want = append(want, data)
		if err := store.PutCtx(ctx, name(i), data); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		for i, data := range want {
			got, _, err := store.GetCtx(ctx, name(i))
			if err != nil {
				if !errors.Is(err, archive.ErrDataLoss) {
					t.Fatalf("unexpected Get error: %v", err)
				}
				continue // a definitive error is acceptable, silence is not
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("SILENT CORRUPTION on %s round %d", name(i), round)
			}
		}
	}
	inj.Quiesce()
	if _, err := store.ScrubCtx(ctx, true); err != nil {
		t.Fatal(err)
	}

	served := inj.ServedCorrupt()
	detected := reg.Counter("archive.detected.corrupt_frames").Value()
	if served == 0 {
		t.Fatal("schedule injected nothing; raise rates or change seed")
	}
	if detected != served {
		t.Errorf("detected %d corrupt frames, injector served %d", detected, served)
	}
	if inj.Outstanding() != 0 {
		t.Errorf("outstanding corruption after repair scrub: %d", inj.Outstanding())
	}
}

// TestQuarantine drives one node to repeatedly serve corrupt frames until
// the store quarantines it, then verifies the node is excluded from Get
// planning, surfaced in the scrub report, healed by the repair scrub, and
// readmitted automatically after a pass in which it served only clean frames.
func TestQuarantine(t *testing.T) {
	g := testGraph(t)
	inj, store, reg, _ := stack(t, g, Config{Seed: 4}, archive.Config{BlockSize: 32, QuarantineThreshold: 3})
	data := payload(300, 4)
	if err := store.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	// Node 0 is a data node, so every planned read touches it. Read-repair
	// heals the frame a Get detects, so it is corrupted again before each
	// one: three detections on node 0 cross the threshold.
	for i := 0; i < 3; i++ {
		if err := inj.CorruptStored(0, "obj/0/0"); err != nil {
			t.Fatal(err)
		}
		if got, _, err := store.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if q := store.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined = %v, want [0]", q)
	}
	if reg.Counter("archive.quarantine.events").Value() != 1 || reg.Gauge("archive.quarantine.nodes").Value() != 1 {
		t.Error("quarantine metrics not recorded")
	}

	// Quarantined: reads no longer touch node 0 and still succeed.
	got, stats, err := store.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get with quarantined node: %v", err)
	}
	if stats.CorruptBlocks != 0 {
		t.Errorf("quarantined node still served corruption: %+v", stats)
	}

	rep, err := store.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.QuarantinedNodes) != 1 || rep.QuarantinedNodes[0] != 0 {
		t.Errorf("scrub QuarantinedNodes = %v", rep.QuarantinedNodes)
	}
	if len(rep.Stripes) == 0 || len(rep.Stripes[0].Quarantined) != 1 {
		t.Errorf("stripe health missing quarantine: %+v", rep.Stripes)
	}

	// Scrub heals even quarantined nodes: the first repair pass rewrites
	// the corrupt frame, but the node stays out — it served corruption
	// during that very pass. The next pass sees only verified frames from
	// it and readmits it.
	if _, err := store.ScrubCtx(ctx, true); err != nil {
		t.Fatal(err)
	}
	if inj.Outstanding() != 0 {
		t.Errorf("repair scrub left %d corruptions at rest", inj.Outstanding())
	}
	if q := store.Quarantined(); len(q) != 1 {
		t.Fatalf("node readmitted during the pass it corrupted in: %v", q)
	}
	rep, err = store.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.QuarantinedNodes) != 0 {
		t.Errorf("clean pass did not readmit the healed node: %v", rep.QuarantinedNodes)
	}
	if reg.Counter("archive.quarantine.readmitted").Value() != 1 {
		t.Error("readmission not counted")
	}
	for _, h := range rep.Stripes {
		if len(h.Missing) != 0 {
			t.Errorf("stripe still missing blocks after heal: %+v", h)
		}
	}
}

// TestTransientErrorsRetried checks the bounded-retry path: a schedule of
// transient read errors is absorbed by retries and parity, never surfacing
// to the caller as wrong data.
func TestTransientErrorsRetried(t *testing.T) {
	g := testGraph(t)
	_, store, reg, _ := stack(t, g, Config{Seed: 5, ReadErrRate: 0.35, WriteErrRate: 0.1},
		archive.Config{BlockSize: 32})
	data := payload(900, 5)
	if err := store.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, _, err := store.GetCtx(ctx, "obj")
		if err != nil {
			if errors.Is(err, archive.ErrDataLoss) {
				continue
			}
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("silent corruption on Get %d", i)
		}
	}
	if reg.Counter("archive.read.retries").Value() == 0 {
		t.Error("no retries recorded under a 35% transient-error schedule")
	}
}

// TestNodeLossAndFlap exercises the availability fault classes.
func TestNodeLossAndFlap(t *testing.T) {
	g := testGraph(t)
	inj, store, _, _ := stack(t, g, Config{Seed: 6}, archive.Config{BlockSize: 32})
	data := payload(600, 6)
	if err := store.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}

	inj.LoseNode(3)
	if inj.Available(3, []byte("obj/0/3")) {
		t.Error("lost node reports available")
	}
	if _, err := inj.Read(context.Background(), 3, []byte("obj/0/3")); !errors.Is(err, ErrNodeLost) {
		t.Errorf("read of lost node: %v", err)
	}
	if errors.Is(ErrNodeLost, archive.ErrTransient) {
		t.Error("node loss must not be transient")
	}
	got, _, err := store.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get around lost node: %v", err)
	}

	inj.FlapNode(5, 4)
	if inj.Available(5, []byte("obj/0/5")) {
		t.Error("flapping node reports available")
	}
	if _, err := inj.Read(context.Background(), 5, []byte("obj/0/5")); !errors.Is(err, archive.ErrTransient) {
		t.Errorf("flapping read should be transient: %v", err)
	}
	// The flap window expires as the op clock advances.
	for i := 0; i < 6; i++ {
		_, _, _ = store.GetCtx(ctx, "obj")
	}
	if !inj.Available(5, []byte("obj/0/5")) {
		t.Error("flap window never expired")
	}

	inj.RestoreNode(3)
	if !inj.Available(3, []byte("obj/0/3")) {
		t.Error("restored node still unavailable")
	}
	if got, _, err := store.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after restore: %v", err)
	}
}

// TestDeterministicSchedule runs the identical workload over two injectors
// with the same seed and requires an identical fault schedule and outcome.
func TestDeterministicSchedule(t *testing.T) {
	run := func() (map[string]int64, int64, int) {
		g := testGraph(t)
		inj, store, _, _ := stack(t, g, Config{
			Seed:            42,
			ReadCorruptRate: 0.1,
			TruncateRate:    0.05,
			TornWriteRate:   0.05,
			ReadErrRate:     0.1,
			FlapRate:        0.02,
			FlapWindow:      8,
		}, archive.Config{BlockSize: 32})
		for i := 0; i < 4; i++ {
			if err := store.PutCtx(ctx, name(i), payload(500, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		dataLoss := 0
		for round := 0; round < 10; round++ {
			for i := 0; i < 4; i++ {
				if _, _, err := store.GetCtx(ctx, name(i)); err != nil {
					dataLoss++
				}
			}
		}
		return inj.InjectedTotals(), inj.ServedCorrupt(), dataLoss
	}
	inj1, served1, loss1 := run()
	inj2, served2, loss2 := run()
	for class, n := range inj1 {
		if inj2[class] != n {
			t.Errorf("class %s: %d vs %d", class, n, inj2[class])
		}
	}
	if served1 != served2 || loss1 != loss2 {
		t.Errorf("outcomes diverged: served %d/%d, loss %d/%d", served1, served2, loss1, loss2)
	}
}

func name(i int) string {
	return string(rune('a'+i)) + "-obj"
}

// TestInFlightDamageStaysInFlight: read corruption and truncation are done to
// the served copy — the caller's dst under ReadInto, the returned slice under
// Read — never to the stored block, and the two entry points are one
// schedule: the same seed serves byte-identical frames through either, with
// the same injection counts. Then, through a store (whose reads land in its
// scratch arena): every Get is exact, detected == served, and the devices
// hold what they held before the first read.
func TestInFlightDamageStaysInFlight(t *testing.T) {
	g := testGraph(t)
	faults := Config{Seed: 9, ReadCorruptRate: 0.3, TruncateRate: 0.2}
	storeCfg := archive.Config{BlockSize: 32, QuarantineThreshold: -1}
	stored := func(devs device.Array) [][]byte {
		var out [][]byte
		for node, d := range devs {
			b, err := d.Read([]byte("obj/0/" + strconv.Itoa(node)))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	ctx := context.Background()

	viaRead, storeA, _, devsA := stack(t, g, faults, storeCfg)
	viaInto, storeB, _, devsB := stack(t, g, faults, storeCfg)
	data := payload(400, 4)
	for _, s := range []*archive.Store{storeA, storeB} {
		if err := s.PutCtx(ctx, "obj", data); err != nil {
			t.Fatal(err)
		}
	}
	atRest := stored(devsA)
	dst := make([]byte, 0, storeA.FrameSize())
	for round := 0; round < 20; round++ {
		for node := 0; node < g.Total; node++ {
			key := []byte("obj/0/" + strconv.Itoa(node))
			a, errA := viaRead.Read(ctx, node, key)
			b, errB := viaInto.ReadInto(ctx, node, key, dst)
			if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
				t.Fatalf("round %d node %d: Read served %x (%v), ReadInto %x (%v)", round, node, a, errA, b, errB)
			}
			if len(b) > 0 && &b[0] != &dst[:1][0] {
				t.Fatalf("round %d node %d: ReadInto served a frame outside dst", round, node)
			}
		}
	}
	if a, b := viaRead.InjectedTotals(), viaInto.InjectedTotals(); !reflect.DeepEqual(a, b) {
		t.Errorf("injections diverged: Read %v, ReadInto %v", a, b)
	}
	if viaInto.ServedCorrupt() == 0 {
		t.Fatal("schedule injected nothing; raise rates or change seed")
	}
	if !reflect.DeepEqual(stored(devsA), atRest) || !reflect.DeepEqual(stored(devsB), atRest) {
		t.Error("in-flight damage reached a stored frame")
	}

	inj, store, reg, devs := stack(t, g, faults, storeCfg)
	if err := store.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		got, _, err := store.GetCtx(ctx, "obj")
		if err != nil {
			if !errors.Is(err, archive.ErrDataLoss) {
				t.Fatalf("unexpected Get error: %v", err)
			}
			continue
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("SILENT CORRUPTION in round %d", round)
		}
	}
	served, detected := inj.ServedCorrupt(), reg.Counter("archive.detected.corrupt_frames").Value()
	if served == 0 || detected != served {
		t.Errorf("detected %d corrupt frames, injector served %d", detected, served)
	}
	if inj.Outstanding() != 0 || !reflect.DeepEqual(stored(devs), atRest) {
		t.Error("in-flight damage through the store reached a stored frame")
	}
}
