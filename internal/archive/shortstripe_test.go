package archive

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tornado/internal/decode"
	"tornado/internal/device"
	"tornado/internal/graph"
)

// shortStripeRead is the differential check of a Get on short stripes. It
// stores one object of size bytes (up to two stripes, block size 64) over a
// recordingBackend, fails the devices failed names, rots the stored frame of
// every stripe on each node corrupt names, and reads every stripe with
// ReadStripeInto into a buffer of garbage. Against the reference peel
// (decode.Decoder) it demands:
//
//   - the read succeeds exactly when the stripe's damaged nodes, less its
//     padding (the data nodes past the payload, zero by construction), leave
//     every data block recoverable, and then returns the exact bytes;
//   - every pattern recoverable with the padding counted as damaged too —
//     what a read that fetched the padding recovered — still is;
//   - the backend sees no read or write of a padding node.
//
// Quarantine is off, so the oracle is the same for every stripe. It returns
// how many reads succeeded, and how many of those the padding rescued.
func shortStripeRead(t *testing.T, g *graph.Graph, size int, failed, corrupt []bool) (ok, rescued int) {
	t.Helper()
	devs := device.NewArray(g.Total)
	rec := &recordingBackend{Backend: NewArrayBackend(devs)}
	s, err := NewWithBackend(g, rec, Config{BlockSize: 64, QuarantineThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(size, uint64(size)+1)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Stat("obj")
	if err != nil {
		t.Fatal(err)
	}
	for node := range g.Total {
		for st := range obj.Stripes {
			if !corrupt[node] || failed[node] {
				continue
			}
			key := blockKey("obj", st, node)
			framed, err := devs[node].Read(key)
			if err != nil {
				t.Fatal(err)
			}
			framed[len(framed)-1] ^= 0x40
			if err := devs[node].Write(key, framed); err != nil {
				t.Fatal(err)
			}
		}
		if failed[node] {
			devs[node].Fail()
		}
	}

	d := decode.New(g)
	capacity := s.Layout().StripeCapacity
	for st := range obj.Stripes {
		n := min(size-st*capacity, capacity)
		live := (n + 63) / 64
		padding := func(node int) bool { return node >= live && node < g.Data }
		var damaged, damagedLive []int
		for node := range g.Total {
			if failed[node] || corrupt[node] {
				damaged = append(damaged, node)
				if !padding(node) {
					damagedLive = append(damagedLive, node)
				}
			}
		}
		want, fetched := d.Recoverable(damagedLive), d.Recoverable(damaged)

		rec.ops, rec.run = nil, ""
		dst := payload(n, uint64(st)+7)
		got, _, err := s.ReadStripeInto(ctx, "obj", st, dst[:0])
		rec.flush()
		switch {
		case want && err != nil:
			t.Fatalf("size %d stripe %d: the peel recovers %v, ReadStripeInto: %v", size, st, damagedLive, err)
		case !want && !errors.Is(err, ErrDataLoss):
			t.Fatalf("size %d stripe %d: the peel does not recover %v, ReadStripeInto: %v", size, st, damagedLive, err)
		case fetched && err != nil:
			t.Fatalf("size %d stripe %d: a read of the padding recovered %v, ReadStripeInto: %v", size, st, damaged, err)
		case err == nil && !bytes.Equal(got, data[st*capacity:st*capacity+n]):
			t.Fatalf("size %d stripe %d: ReadStripeInto returned wrong bytes", size, st)
		}
		if err == nil {
			ok++
			if !fetched {
				rescued++
			}
		}
		for _, op := range rec.ops {
			lo, hi := opNodes(t, op)
			for node := lo; node <= hi; node++ {
				if padding(node) {
					t.Fatalf("size %d stripe %d: ReadStripeInto touched padding node %d (%s; ops %v)", size, st, node, op, rec.ops)
				}
			}
		}
	}
	return ok, rescued
}

// opNodes returns the node range of one recordingBackend op: "R7", "W7!",
// "R0-47".
func opNodes(t *testing.T, op string) (lo, hi int) {
	t.Helper()
	first, last, span := strings.Cut(strings.TrimSuffix(op[1:], "!"), "-")
	lo, err := strconv.Atoi(first)
	if err != nil {
		t.Fatalf("op %q: %v", op, err)
	}
	if !span {
		return lo, lo
	}
	if hi, err = strconv.Atoi(last); err != nil {
		t.Fatalf("op %q: %v", op, err)
	}
	return lo, hi
}

// TestShortStripeReadMatchesPeel runs shortStripeRead over seeded patterns:
// payloads of 0 to two stripes, with no damage up to a third of the devices
// failed and a tenth of the frames rotted. Both outcomes must occur, and some
// stripe must be one the padding rescued — one a read that fetched the
// padding, treating its failed and rotted frames as erasures, could not
// recover.
func TestShortStripeReadMatchesPeel(t *testing.T) {
	g := benchStore(t).Graph()
	capacity := g.Data * 64
	rng := rand.New(rand.NewPCG(2006, 40))
	ok, rescued, reads := 0, 0, 0
	for trial := range 300 {
		size := rng.IntN(2*capacity + 1)
		rate := []float64{0, 0.05, 0.1, 0.2, 0.33}[trial%5]
		failed, corrupt := make([]bool, g.Total), make([]bool, g.Total)
		for node := range g.Total {
			failed[node] = rng.Float64() < rate
			corrupt[node] = rng.Float64() < rate/3
		}
		o, r := shortStripeRead(t, g, size, failed, corrupt)
		ok, rescued, reads = ok+o, rescued+r, reads+max(1, (size+capacity-1)/capacity)
	}
	t.Logf("%d of %d stripe reads succeeded, %d of them rescued by the padding", ok, reads, rescued)
	if ok == 0 || ok == reads || rescued == 0 {
		t.Errorf("%d of %d reads succeeded, %d rescued: every outcome must be exercised", ok, reads, rescued)
	}
}

// FuzzShortStripeRead is the randomized arm of TestShortStripeReadMatchesPeel:
// size picks the payload length in 0..2×StripeCapacity, and bit v of failed
// and of corrupt fails node v's device and rots node v's frames.
func FuzzShortStripeRead(f *testing.F) {
	f.Add(uint16(0), []byte{}, []byte{})
	f.Add(uint16(100), []byte{0x03}, []byte{})
	f.Add(uint16(1017), []byte{0x21, 0, 0x02}, []byte{0, 0x80})
	f.Add(uint16(3072), []byte{0, 0, 0, 0, 0, 0, 0x11}, []byte{0x04})
	f.Add(uint16(4100), []byte{0x01, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff}, []byte{0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01})
	g := benchStore(f).Graph()
	f.Fuzz(func(t *testing.T, size uint16, failedBits, corruptBits []byte) {
		bit := func(mask []byte, v int) bool { return v/8 < len(mask) && mask[v/8]&(1<<(v%8)) != 0 }
		failed, corrupt := make([]bool, g.Total), make([]bool, g.Total)
		for node := range g.Total {
			failed[node], corrupt[node] = bit(failedBits, node), bit(corruptBits, node)
		}
		shortStripeRead(t, g, int(size)%(2*g.Data*64+1), failed, corrupt)
	})
}

// TestPaddingFrameElisionInvisible: a device keeps a zero-padding block's
// frame as its checksum prefix, and nothing above the device can tell. A
// 256 KiB object — serve_cold's shape: a full stripe, then 16 live data
// blocks and 32 of padding — over a generated 96-node graph loses the device
// of a node that is padding in the short stripe, and the replacement comes up
// empty. Scrub reports the node missing and repaired in both stripes, a Get
// and a degraded Get return the object bit-exact, and the padding node's
// block reads back as 4096 zero bytes.
func TestPaddingFrameElisionInvisible(t *testing.T) {
	const block = 4096
	s := testStore(t, Config{BlockSize: block})
	data := payload(256<<10, 46)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	live := (len(data) - s.Layout().StripeCapacity + block - 1) / block
	node := s.Layout().DataNodes - 1 // padding in stripe 1
	if obj, err := s.Stat("obj"); err != nil || obj.Stripes != 2 || live != 16 {
		t.Fatalf("object of %d stripes (%v), %d live blocks in the second; want 2 and 16", obj.Stripes, err, live)
	}
	devs := s.Devices()
	devs[node].Fail()
	devs[node].Replace()

	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stripes) != 2 || rep.BlocksRepaired != 2 {
		t.Fatalf("scrub saw %d stripes and repaired %d blocks; want 2 and 2", len(rep.Stripes), rep.BlocksRepaired)
	}
	for _, h := range rep.Stripes {
		if !slices.Equal(h.Missing, []int{node}) || !slices.Equal(h.Repaired, []int{node}) {
			t.Errorf("stripe %d: missing %v, repaired %v; want node %d in both", h.Stripe, h.Missing, h.Repaired, node)
		}
	}
	if !devs[node].Holds(blockKey("obj", 1, node), device.Online) {
		t.Error("scrub did not write the padding frame back")
	}
	if got, _, err := s.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after repair: %d bytes, %v", len(got), err)
	}
	for n := range 4 { // four live data blocks of every stripe
		devs[n].Fail()
	}
	if got, _, err := s.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded Get: %d bytes, %v", len(got), err)
	}
	if b, err := s.ReadBlockCtx(ctx, "obj", 1, node, nil); err != nil || !bytes.Equal(b, make([]byte, block)) {
		t.Errorf("padding block read back %d bytes (%v), not %d zeros", len(b), err, block)
	}
}

// TestScrubKnowsThePadding: a scrub knows a short stripe's zero padding as a
// Get does. A 5-block stripe (43 data nodes of padding) whose live node 0 and
// every padding frame are rotten is beyond the peel of what it reads, but not
// with the padding known: the scrub reports it recoverable, the repairing
// scrub rewrites every rotten frame, and a second scrub finds nothing
// missing. When node 0's parent checks and theirs are rotten too, the padding
// does not rescue the stripe; the partial repair still rewrites every
// padding frame as zeros, and never node 0.
func TestScrubKnowsThePadding(t *testing.T) {
	g := benchStore(t).Graph()
	const live = 5
	padding := make([]int, 0, g.Data-live)
	for node := live; node < g.Data; node++ {
		padding = append(padding, node)
	}
	above := checksAbove(g, 0)
	for _, tc := range []struct {
		name    string
		rotten  []int
		rescued bool
	}{
		{"rescued", append([]int{0}, padding...), true},
		{"not rescued", slices.Concat([]int{0}, padding, above), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := decode.New(g)
			if d.Recoverable(tc.rotten) || d.Recoverable(slices.DeleteFunc(slices.Clone(tc.rotten),
				func(v int) bool { return v >= live && v < g.Data })) != tc.rescued {
				t.Fatalf("rotting %v: want a stripe only the padding can rescue: %v", tc.rotten, tc.rescued)
			}
			devs := device.NewArray(g.Total)
			s, err := NewWithBackend(g, NewArrayBackend(devs), Config{BlockSize: 64, QuarantineThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			data := payload(live*64-3, 8)
			if err := s.PutCtx(ctx, "obj", data); err != nil {
				t.Fatal(err)
			}
			for _, node := range tc.rotten {
				corruptFrame(t, devs, node)
			}
			rep, err := s.ScrubCtx(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			if h := rep.Stripes[0]; h.Recoverable != tc.rescued || len(h.Corrupt) != len(tc.rotten) {
				t.Fatalf("scrub: recoverable %v with %d corrupt frames, want %v and %d", h.Recoverable, len(h.Corrupt), tc.rescued, len(tc.rotten))
			}
			if rep, err = s.ScrubCtx(ctx, true); err != nil {
				t.Fatal(err)
			}
			repaired := rep.Stripes[0].Repaired
			if !tc.rescued {
				data := slices.DeleteFunc(slices.Clone(repaired), func(v int) bool { return v >= g.Data })
				if !slices.Equal(data, padding) {
					t.Errorf("unrescued stripe: data nodes %v repaired, want every padding node and no live one", data)
				}
				return
			}
			if !slices.Equal(repaired, tc.rotten) {
				t.Errorf("repaired %v, want %v", repaired, tc.rotten)
			}
			if rep, err = s.ScrubCtx(ctx, false); err != nil || len(rep.Stripes[0].Missing) != 0 {
				t.Errorf("scrub after the repair: missing %v, %v", rep.Stripes[0].Missing, err)
			}
			if got, _, err := s.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
				t.Errorf("Get after the repair: %v", err)
			}
		})
	}
}
