package codec

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// targetedFixture is one encoded stripe for the DecodeInto oracle tests.
type targetedFixture struct {
	c       *Codec
	ws      *Workspace
	payload []byte
	full    [][]byte
	dst     []byte
}

func newTargetedFixture(t testing.TB) *targetedFixture {
	t.Helper()
	c, err := New(testGraph(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	payload := make([]byte, c.Capacity()-3)
	for i := range payload {
		payload[i] = byte(rng.IntN(256))
	}
	full, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	return &targetedFixture{c: c, ws: c.NewWorkspace(), payload: payload, full: full, dst: make([]byte, 0, c.Capacity())}
}

// check decodes the stripe with the erased blocks missing and the wanted ones
// asked for, on the fixture's one workspace, and compares with the reference
// repair on a copy. fellBack reports that an erased check nobody asked for
// was filled in: a step some asked-for block depends on.
func (f *targetedFixture) check(t testing.TB, erased, want []bool) (fellBack bool) {
	t.Helper()
	oracle := make([][]byte, len(f.full))
	blocks := make([][]byte, len(f.full))
	for v, b := range f.full {
		if !erased[v] {
			oracle[v], blocks[v] = b, b
		}
	}
	wantErr := repairRef(f.c, oracle)
	f.ws.Want(want)
	got, err := f.c.DecodeInto(f.ws, f.dst[:0], blocks, len(f.payload))
	if err != wantErr {
		t.Fatalf("DecodeInto err = %v, Repair err = %v (erased %v)", err, wantErr, erased)
	}
	for v, b := range blocks {
		// Whatever was filled in must still hold the node's bytes when
		// the call returns: nothing recycled the arena under it.
		if b != nil && !bytes.Equal(b, f.full[v]) {
			t.Fatalf("block %d holds the wrong bytes after DecodeInto (erased %v, want %v)", v, erased, want)
		}
		if b != nil && erased[v] && v >= f.c.g.Data && !want[v] {
			fellBack = true
		}
	}
	if err != nil {
		return fellBack
	}
	if !bytes.Equal(got, f.payload) {
		t.Fatalf("payload differs from Decode's (erased %v)", erased)
	}
	for v := range blocks {
		if (v < f.c.g.Data || want[v]) && oracle[v] != nil && blocks[v] == nil {
			t.Fatalf("node %d was asked for and Repair rebuilds it, DecodeInto left it missing (erased %v, want %v)", v, erased, want)
		}
	}
	return fellBack
}

// TestDecodeIntoMatchesRepair: over random erasure sets and random requested
// sets, DecodeInto returns Decode's payload, fills in every requested block
// Repair can rebuild, and fails exactly when Repair does.
func TestDecodeIntoMatchesRepair(t *testing.T) {
	f := newTargetedFixture(t)
	rng := rand.New(rand.NewPCG(9, 1))
	n := len(f.full)
	for trial := 0; trial < 400; trial++ {
		erased, want := make([]bool, n), make([]bool, n)
		for j := rng.IntN(40); j > 0; j-- {
			erased[rng.IntN(n)] = true
		}
		for j := rng.IntN(6); j > 0; j-- {
			want[rng.IntN(n)] = true
		}
		f.check(t, erased, want)
	}

	// The stall, scripted: no check was read and a second-level check is
	// asked for. Its lefts are checks nobody asked for, so the pruned
	// schedule must re-encode them first, on the same arena.
	erased, want := make([]bool, n), make([]bool, n)
	for r := f.c.g.Data; r < n; r++ {
		erased[r] = true
		if int(f.c.g.LeftNeighbors(r)[0]) >= f.c.g.Data {
			want[r] = true
		}
	}
	if !f.check(t, erased, want) {
		t.Error("asking for second-level checks with no check read did not fall back to the full closure")
	}
	want = make([]bool, n)
	if f.check(t, erased, want) {
		t.Error("a decode from exactly the data blocks filled in checks nobody asked for")
	}
}

// FuzzDecodeIntoMatchesRepair is the randomized arm of
// TestDecodeIntoMatchesRepair: bit v of erase drops node v, bit v of want
// asks for it.
func FuzzDecodeIntoMatchesRepair(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x21, 0, 0x02, 0, 0x02}, []byte{0x21, 0, 0x02, 0, 0x02})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10})
	f.Add([]byte{0x01, 0, 0, 0, 0, 0, 0xff, 0x0f}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01})
	fx := newTargetedFixture(f)
	f.Fuzz(func(t *testing.T, erase, want []byte) {
		bits := func(mask []byte) []bool {
			out := make([]bool, len(fx.full))
			for v := range out {
				out[v] = v/8 < len(mask) && mask[v/8]&(1<<(v%8)) != 0
			}
			return out
		}
		fx.check(t, bits(erase), bits(want))
	})
}

// TestHealthyDecodeDoesNoXOR: from exactly the data blocks, DecodeInto is a
// copy — no check block is re-encoded and nothing is allocated.
func TestHealthyDecodeDoesNoXOR(t *testing.T) {
	f := newTargetedFixture(t)
	blocks := make([][]byte, len(f.full))
	copy(blocks, f.full[:f.c.g.Data])
	var got []byte
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		got, err = f.c.DecodeInto(f.ws, f.dst[:0], blocks, len(f.payload))
	})
	if err != nil || !bytes.Equal(got, f.payload) {
		t.Fatalf("healthy decode: err %v, payload match %v", err, bytes.Equal(got, f.payload))
	}
	for r := f.c.g.Data; r < len(blocks); r++ {
		if blocks[r] != nil {
			t.Errorf("check %d was re-encoded by a healthy decode", r)
		}
	}
	if allocs != 0 {
		t.Errorf("healthy decode allocates %.0f times, want 0", allocs)
	}
}

// TestDegradedRepairAllocs: on a reused workspace a degraded DecodeInto and
// RepairWith allocate nothing — nor, so, do the reused decoder's ScheduleFor
// and Schedule they run; the allocating Repair allocates the blocks it
// fills plus the decoder it schedules with (the struct and its six arrays),
// never the graph's adjacency, which the codec's decoders share.
func TestDegradedRepairAllocs(t *testing.T) {
	f := newTargetedFixture(t)
	work := make([][]byte, len(f.full))
	// allocs runs op on the stripe with lost missing and returns its
	// allocations per call and the number of blocks the last call filled.
	allocs := func(lost []int, op func() error) (perCall float64, filled int) {
		t.Helper()
		perCall = testing.AllocsPerRun(20, func() {
			copy(work, f.full)
			for _, v := range lost {
				work[v] = nil
			}
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
		for _, v := range lost {
			if work[v] != nil {
				filled++
				if !bytes.Equal(work[v], f.full[v]) {
					t.Fatalf("lost %v: block %d holds the wrong bytes", lost, v)
				}
			}
		}
		return perCall, filled
	}
	f.ws.Want(nil)
	for _, lost := range [][]int{{3, 17, 29, 41}, {0, 1, 50, 60, 70}} {
		if a, _ := allocs(lost, func() error {
			_, err := f.c.DecodeInto(f.ws, f.dst[:0], work, len(f.payload))
			return err
		}); a != 0 {
			t.Errorf("lost %v: degraded DecodeInto allocates %.0f times, want 0", lost, a)
		}
		if a, _ := allocs(lost, func() error { return f.c.RepairWith(f.ws, work) }); a != 0 {
			t.Errorf("lost %v: degraded RepairWith allocates %.0f times, want 0", lost, a)
		}
		if a, filled := allocs(lost, func() error { return f.c.Repair(work) }); a > float64(filled+7) {
			t.Errorf("lost %v: Repair allocates %.0f times, want at most %d filled blocks + 7", lost, a, filled)
		}
	}
}
