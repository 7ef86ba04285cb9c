package maid_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/maid"
)

// TestChaosOverShelf composes the stack the chaos layer was built to
// compose: archive → chaos injector → MAID shelf → devices. At-rest
// corruption and a permanent node loss are injected underneath the power
// manager; the archive must detect every corrupt frame through the spin-up
// path, serve bit-exact data, and heal the damage by scrub — all without
// either layer knowing the other is there.
func TestChaosOverShelf(t *testing.T) {
	ctx := context.Background()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(42, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devs := device.NewArray(g.Total)
	shelf, err := maid.NewShelf(devs, g.Total/4) // tight spin budget
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.Wrap(maid.NewStoreBackend(shelf), chaos.Config{Seed: 42})
	store, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 1200)
	rng := rand.New(rand.NewPCG(42, 2))
	for i := range data {
		data[i] = byte(rng.IntN(256))
	}
	if err := store.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}

	// Silently rot three frames at rest, under the shelf's power management.
	for node := 0; node < 3; node++ {
		if err := inj.CorruptStored(node, fmt.Sprintf("obj/0/%d", node)); err != nil {
			t.Fatalf("corrupt node %d: %v", node, err)
		}
	}
	// And permanently lose a fourth node.
	inj.LoseNode(5)

	got, stats, err := store.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatalf("Get: %v (stats %+v)", err, stats)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corruption under the shelf leaked through to the caller")
	}
	if stats.CorruptBlocks == 0 {
		t.Error("no corrupt frames detected; the injected rot was never read")
	}
	if stats.ReadRepairs == 0 {
		t.Error("read-repair did not fire on detected corruption")
	}

	// Scrub the remainder: with the lost node restored, repair must clear
	// every outstanding at-rest corruption the Get did not reach.
	inj.RestoreNode(5)
	if _, err := store.ScrubCtx(ctx, true); err != nil {
		t.Fatal(err)
	}
	if n := inj.Outstanding(); n != 0 {
		t.Errorf("%d corrupt frames still at rest after repair scrub", n)
	}
	rep, err := store.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rep.Stripes {
		if len(h.Missing) != 0 {
			t.Errorf("stripe %d still missing %v after repair", h.Stripe, h.Missing)
		}
	}

	// The power budget held throughout: chaos faults must not trick the
	// shelf into spinning more drives than allowed.
	if on := shelf.OnlineCount(); on > g.Total/4 {
		t.Errorf("%d drives spinning, budget is %d", on, g.Total/4)
	}
}
