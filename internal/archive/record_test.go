package archive_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
)

// TestRecordImpliesAvailable is the differential test of the availability
// record: over a seeded run of random operations on a store over a chaos
// injector over a device array, after every operation, for every stripe of
// every committed object and every node, the record saying the node holds
// its block implies the backend's Available saying so. The operations are
// everything that writes, deletes or loses a block or moves a device: Put
// (PutCtx, PutStream at widths 1 and 2), Delete, Fail, Replace, SetOffline,
// SetOnline, Lose, PutShell with WriteBlockCtx, a repairing scrub, and the
// injector's LoseNode, RestoreNode and FlapNode, with injected write faults
// throughout.
func TestRecordImpliesAvailable(t *testing.T) {
	ctx := context.Background()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devs := device.NewArray(g.Total)
	// Write faults beyond the retries leave some nodes without a block of a
	// Put that succeeds.
	inj := chaos.Wrap(archive.NewArrayBackend(devs), chaos.Config{Seed: 1, WriteErrRate: 0.4})
	s, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	lay := s.Layout()
	rng := rand.New(rand.NewPCG(2006, 37))
	data := func() []byte {
		b := make([]byte, rng.IntN(3*lay.StripeCapacity))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	names := []string{"a", "b", "c", "d", "shell"}
	covered := 0
	check := func(op string) {
		t.Helper()
		for _, obj := range s.List() {
			for st := 0; st < obj.Stripes; st++ {
				for node := 0; node < g.Total; node++ {
					if !s.RecordCovers(obj.Name, node) {
						continue
					}
					covered++
					key := []byte(obj.Name + "/" + strconv.Itoa(st) + "/" + strconv.Itoa(node))
					if !inj.Available(node, key) {
						t.Fatalf("after %s: the record of %q covers node %d, but stripe %d's block is not available",
							op, obj.Name, node, st)
					}
				}
			}
		}
	}
	failed := func() int { return devs.CountState(device.Failed) }
	for step := range 400 {
		name := names[rng.IntN(len(names)-1)]
		node := rng.IntN(g.Total)
		var op string
		switch rng.IntN(12) {
		case 0:
			op = "PutCtx"
			_ = s.PutCtx(ctx, name, data())
		case 1, 2:
			width := 1 + rng.IntN(2)
			op = fmt.Sprintf("PutStream width %d", width)
			_, _ = s.PutStream(ctx, name, bytes.NewReader(data()), archive.WithParallelism(width))
		case 3:
			op = "DeleteCtx"
			_ = s.DeleteCtx(ctx, name)
		case 4:
			if failed() < 3 {
				op = "Fail"
				devs[node].Fail()
			} else {
				op = "Replace"
				for _, d := range devs {
					if d.State() == device.Failed {
						d.Replace()
					}
				}
			}
		case 5:
			op = "Replace"
			devs[node].Replace()
		case 6:
			op = "SetOffline/SetOnline"
			if devs[node].State() == device.Offline {
				devs[node].SetOnline()
			} else {
				devs[node].SetOffline()
			}
		case 7:
			op = "Lose"
			if obj, err := s.Stat(name); err == nil {
				devs[node].Lose([]byte(fmt.Sprintf("%s/%d/%d", name, rng.IntN(obj.Stripes), node)))
			}
		case 8:
			op = "PutShell + WriteBlockCtx"
			if err := s.PutShell("shell", lay.StripeCapacity, 1); err == nil {
				for n := range g.Total {
					_ = s.WriteBlockCtx(ctx, "shell", 0, n, make([]byte, lay.BlockSize))
				}
			} else {
				_ = s.DeleteCtx(ctx, "shell")
			}
		case 9:
			op = "ScrubCtx"
			_, _ = s.ScrubCtx(ctx, true)
		case 10:
			if len(inj.LostNodes()) < 2 {
				op = "LoseNode"
				inj.LoseNode(node)
			} else {
				op = "RestoreNode"
				inj.RestoreNode(inj.LostNodes()[0])
			}
		case 11:
			op = "FlapNode"
			inj.FlapNode(node, 1+rng.IntN(200))
		}
		check(fmt.Sprintf("step %d (%s)", step, op))
	}
	if covered == 0 {
		t.Fatal("the record never covered a node: the test checked nothing")
	}
	t.Logf("%d covered (stripe, node) answers checked", covered)
}
