package device

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(3)
	if d.ID() != 3 || d.State() != Online {
		t.Fatal("fresh device wrong")
	}
	if err := d.Write([]byte("a"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("Read = %q", got)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BytesRead != 5 || st.BytesWritten != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReadIsCopy(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("abc"))
	got, _ := d.Read([]byte("a"))
	got[0] = 'X'
	again, _ := d.Read([]byte("a"))
	if string(again) != "abc" {
		t.Error("Read returned aliased storage")
	}
}

// TestReadIntoLandsInDst: a block that fits is copied into the caller's
// buffer (no allocation, the stored copy untouched by later writes to dst),
// one that does not fit is grown into a fresh slice, and errors hand back
// nothing.
func TestReadIntoLandsInDst(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("abc"))
	dst := make([]byte, 1, 8)
	got, err := d.ReadInto([]byte("a"), dst)
	if err != nil || string(got) != "abc" || &got[0] != &dst[0] {
		t.Fatalf("ReadInto = %q, %v (aliases dst: %v)", got, err, len(got) > 0 && &got[0] == &dst[0])
	}
	got[0] = 'X'
	if again, _ := d.ReadInto([]byte("a"), nil); string(again) != "abc" {
		t.Error("ReadInto handed out the stored block")
	}
	if small, err := d.ReadInto([]byte("a"), make([]byte, 0, 2)); err != nil || string(small) != "abc" {
		t.Errorf("ReadInto with a short dst = %q, %v", small, err)
	}
	if got, err := d.ReadInto([]byte("nope"), dst); got != nil || !errors.Is(err, ErrNotFound) {
		t.Errorf("missing block: %q, %v", got, err)
	}
	key := []byte("a")
	if n := testing.AllocsPerRun(100, func() { d.ReadInto(key, dst) }); n != 0 {
		t.Errorf("ReadInto into a large enough dst allocates %.0f times", n)
	}
}

func TestHoldsAnswersStateAndKey(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.PowerOff()
	if d.Holds([]byte("a"), Online) || !d.Holds([]byte("a"), Online, Standby) {
		t.Error("standby device: Holds must honour the state list")
	}
	if d.Holds([]byte("nope"), Online, Standby) {
		t.Error("Holds reported a key the device never stored")
	}
}

func TestWriteIsCopy(t *testing.T) {
	d := New(0)
	buf := []byte("abc")
	d.Write([]byte("a"), buf)
	buf[0] = 'X'
	got, _ := d.Read([]byte("a"))
	if string(got) != "abc" {
		t.Error("Write aliased caller buffer")
	}
}

func TestReadMissing(t *testing.T) {
	d := New(0)
	if _, err := d.Read([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestUnavailableStates(t *testing.T) {
	for _, setup := range []func(*Device){
		func(d *Device) { d.PowerOff() },
		func(d *Device) { d.SetOffline() },
		func(d *Device) { d.Fail() },
	} {
		d := New(0)
		d.Write([]byte("a"), []byte("x"))
		setup(d)
		if _, err := d.Read([]byte("a")); !errors.Is(err, ErrUnavailable) {
			t.Errorf("Read in %v: err = %v", d.State(), err)
		}
		if err := d.Write([]byte("b"), []byte("y")); !errors.Is(err, ErrUnavailable) {
			t.Errorf("Write in %v: err = %v", d.State(), err)
		}
		if err := d.Delete([]byte("a")); !errors.Is(err, ErrUnavailable) {
			t.Errorf("Delete in %v: err = %v", d.State(), err)
		}
	}
}

func TestPowerCycle(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.PowerOff()
	if d.State() != Standby {
		t.Fatalf("state = %v", d.State())
	}
	d.PowerOn()
	if d.State() != Online {
		t.Fatalf("state = %v", d.State())
	}
	if d.Stats().SpinUps != 1 {
		t.Errorf("spinups = %d", d.Stats().SpinUps)
	}
	// Data survives standby.
	if got, err := d.Read([]byte("a")); err != nil || string(got) != "x" {
		t.Errorf("data lost across power cycle: %v %q", err, got)
	}
	// PowerOn on an online device is a no-op.
	d.PowerOn()
	if d.Stats().SpinUps != 1 {
		t.Error("redundant PowerOn counted")
	}
}

func TestOfflinePreservesData(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.SetOffline()
	d.SetOnline()
	if got, err := d.Read([]byte("a")); err != nil || string(got) != "x" {
		t.Errorf("data lost across offline: %v %q", err, got)
	}
}

func TestFailDestroysData(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.Fail()
	if d.State() != Failed {
		t.Fatalf("state = %v", d.State())
	}
	if d.Holds([]byte("a"), Failed) {
		t.Error("failed device still holds data")
	}
	// Offline/online transitions must not resurrect a failed device.
	d.SetOffline()
	d.SetOnline()
	if d.State() != Failed {
		t.Errorf("failed device revived to %v", d.State())
	}
	d.Replace()
	if d.State() != Online || d.Len() != 0 {
		t.Error("Replace should give a fresh online device")
	}
}

func TestPowerOffOnlyFromOnline(t *testing.T) {
	d := New(0)
	d.Fail()
	d.PowerOff()
	if d.State() != Failed {
		t.Errorf("PowerOff changed failed device to %v", d.State())
	}
}

func TestDeleteAndHasAndLen(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("x"))
	d.Write([]byte("b"), []byte("y"))
	if d.Len() != 2 || !d.Holds([]byte("a"), Online) {
		t.Error("Holds/Len wrong")
	}
	if err := d.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if d.Holds([]byte("a"), Online) || d.Len() != 1 {
		t.Error("Delete did not remove block")
	}
	if err := d.Delete([]byte("nope")); err != nil {
		t.Errorf("Delete missing = %v, want nil", err)
	}
}

func TestArray(t *testing.T) {
	a := NewArray(10)
	if len(a) != 10 || a[7].ID() != 7 {
		t.Fatal("NewArray wrong")
	}
	if a.CountState(Online) != 10 {
		t.Error("fresh array not all online")
	}
	ids := a.FailRandom(3, rand.New(rand.NewPCG(1, 1)))
	if len(ids) != 3 {
		t.Fatalf("failed %d devices", len(ids))
	}
	if a.CountState(Failed) != 3 || a.CountState(Online) != 7 {
		t.Error("counts after FailRandom wrong")
	}
	// Distinct IDs.
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Error("duplicate failed ID")
		}
		seen[id] = true
	}
	// k > len clamps.
	if got := a.FailRandom(100, rand.New(rand.NewPCG(2, 2))); len(got) != 10 {
		t.Errorf("clamped FailRandom returned %d", len(got))
	}
}

// TestFailRandomClampsK: a k below zero fails no device and one above the
// array's length fails every device, neither panicking.
func TestFailRandomClampsK(t *testing.T) {
	for _, tc := range []struct{ k, want int }{{-1, 0}, {0, 0}, {11, 10}} {
		a := NewArray(10)
		if got := a.FailRandom(tc.k, rand.New(rand.NewPCG(1, 1))); len(got) != tc.want || a.CountState(Failed) != tc.want {
			t.Errorf("FailRandom(%d) on 10 devices failed %v (%d failed), want %d", tc.k, got, a.CountState(Failed), tc.want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			key := []byte{byte('a' + n)}
			for j := 0; j < 100; j++ {
				d.Write(key, []byte{byte(j)})
				d.Read(key)
				d.Holds(key, Online)
			}
		}(i)
	}
	wg.Wait()
	if d.Len() != 8 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Online: "online", Standby: "standby", Offline: "offline", Failed: "failed", State(9): "state(9)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

// TestSlotsRoundTrip: frames of every shape — slab-sized, odd-length (a
// torn write's prefix), empty and larger than a slab — read back exactly
// through overwrites of equal and of other lengths and through delete and
// rewrite; Fail and Replace forget every frame, and the replacement refills
// the dead drive's memory without carving a new slab.
func TestSlotsRoundTrip(t *testing.T) {
	d := New(0)
	rng := rand.New(rand.NewPCG(5, 5))
	frame := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		return b
	}
	want := map[string][]byte{}
	write := func(k string, n int) {
		t.Helper()
		b := frame(n)
		if err := d.Write([]byte(k), b); err != nil {
			t.Fatal(err)
		}
		want[k] = bytes.Clone(b)
		for i := range b { // the device holds a copy
			b[i] ^= 0xFF
		}
	}
	check := func(when string) {
		t.Helper()
		if d.Len() != len(want) {
			t.Fatalf("%s: %d frames stored, want %d", when, d.Len(), len(want))
		}
		for k, w := range want {
			got, err := d.Read([]byte(k))
			if err != nil || !bytes.Equal(got, w) {
				t.Fatalf("%s: frame %q read back %d bytes, %v; want %d", when, k, len(got), err, len(w))
			}
		}
	}
	sizes := []int{4100, 4100, 1, 0, 2999, maxSlab, maxSlab + 1, 3 * maxSlab, 68}
	for i, n := range sizes {
		write(fmt.Sprint(i), n)
	}
	check("written")
	for i, n := range sizes { // equal length: in place
		write(fmt.Sprint(i), n)
	}
	check("overwritten in place")
	for i := range sizes { // another length: a new slot, the old one freed
		write(fmt.Sprint(i), sizes[(i+1)%len(sizes)])
	}
	check("overwritten at another length")
	for i := 0; i < len(sizes); i += 2 {
		if err := d.Delete([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		delete(want, fmt.Sprint(i))
	}
	check("half deleted")
	for i, n := range sizes { // freed slots come back for new keys
		write(fmt.Sprintf("new%d", i), n)
	}
	check("rewritten")

	old, slabs := want, len(d.slabs)
	d.Fail()
	d.Replace()
	want = map[string][]byte{}
	check("after Replace")
	for k := range old {
		if _, err := d.Read([]byte(k)); !errors.Is(err, ErrNotFound) || d.Holds([]byte(k), Online) {
			t.Fatalf("frame %q of the dead drive still answers: %v", k, err)
		}
	}
	for i, n := range sizes {
		write(fmt.Sprint("again", i), n)
	}
	check("refilled after Replace")
	if len(d.slabs) != slabs {
		t.Errorf("refilled with the same frames, the replaced drive holds %d slabs; the dead one held %d", len(d.slabs), slabs)
	}
}

// TestReplaceLeavesNoStaleBytes: frames written to a replacement drive land
// in the slabs the dead drive's frames filled, and read back exactly as
// written — a shorter frame shows none of the old bytes past its end, and no
// slot is handed out twice, though the dead drive had deleted frames on its
// free list — while no key of the dead drive answers.
func TestReplaceLeavesNoStaleBytes(t *testing.T) {
	const frames = 40
	d := New(0)
	for i := range frames {
		if err := d.Write([]byte(fmt.Sprint("old", i)), bytes.Repeat([]byte{0xAA}, 4100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range frames / 2 {
		if err := d.Delete([]byte(fmt.Sprint("old", i))); err != nil {
			t.Fatal(err)
		}
	}
	d.Fail()
	d.Replace()
	want := map[string][]byte{}
	for i := range 2 * frames { // as many 4100-byte frames as the dead drive had slots
		n := 68
		if i%2 == 0 {
			n = 4100
		}
		k, b := fmt.Sprint("new", i), bytes.Repeat([]byte{byte(i)}, n)
		if err := d.Write([]byte(k), b); err != nil {
			t.Fatal(err)
		}
		want[k] = b
	}
	for k, w := range want {
		if got, err := d.Read([]byte(k)); err != nil || !bytes.Equal(got, w) {
			t.Errorf("frame %q read back %d bytes other than the %d written: %v", k, len(got), len(w), err)
		}
	}
	for i := range frames {
		k := []byte(fmt.Sprint("old", i))
		if _, err := d.Read(k); !errors.Is(err, ErrNotFound) || d.Holds(k, Online) {
			t.Errorf("frame %q of the dead drive still answers: %v", k, err)
		}
	}
}

// TestOverwriteDoesNotReachReaders: an equal-length overwrite copies into the
// stored slot, which no reader ever holds — a frame read before it keeps its
// bytes.
func TestOverwriteDoesNotReachReaders(t *testing.T) {
	d := New(0)
	d.Write([]byte("a"), []byte("abc"))
	before, _ := d.Read([]byte("a"))
	into, _ := d.ReadInto([]byte("a"), make([]byte, 0, 8))
	d.Write([]byte("a"), []byte("xyz"))
	if string(before) != "abc" || string(into) != "abc" {
		t.Errorf("reads taken before an overwrite changed to %q, %q", before, into)
	}
	if got, _ := d.Read([]byte("a")); string(got) != "xyz" {
		t.Errorf("overwrite read back %q", got)
	}
}

// randomFrame returns n random bytes, and zeroTailed a frame of n bytes whose
// payload is zero behind a 4-byte checksum-like header — the shape of a
// padding block's frame.
func randomFrame(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

func zeroTailed(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	copy(b, randomFrame(rng, 4))
	return b
}

// TestDeviceWriteChurnAllocs: once the device has slots to hand out, writes,
// overwrites, Deletes and Writes of keys written before allocate nothing
// beyond the map's copy of a new key — the churn a Put followed by a Delete
// puts on every device — whether the frame is random (kept whole), zero-tailed
// (kept as its prefix) or a key flipping between the two; and neither does
// refilling a drive after Fail and Replace, the churn of a site rebuilt from
// its peers.
func TestDeviceWriteChurnAllocs(t *testing.T) {
	d := New(0)
	rng := rand.New(rand.NewPCG(3, 3))
	frames := [2][]byte{randomFrame(rng, 4100), zeroTailed(rng, 4100)}
	const keys = 64
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("obj/%d/7", i))
	}
	churn := func() {
		for i, k := range ks { // random and zero-tailed frames side by side
			d.Write(k, frames[i%2])
		}
		for i, k := range ks { // every key flips
			d.Write(k, frames[(i+1)%2])
		}
		for i, k := range ks { // and flips back
			d.Write(k, frames[i%2])
		}
		for _, k := range ks {
			d.Delete(k)
		}
	}
	for range 3 { // warm-up: slabs carved, map grown, free lists filled
		churn()
	}
	if allocs := testing.AllocsPerRun(20, churn); allocs > keys {
		t.Errorf("write, flip, flip back and delete of %d frames allocate %.0f times; only the %d new key strings may", keys, allocs, keys)
	}
	for i, f := range frames {
		if n := testing.AllocsPerRun(20, func() { d.Write(ks[0], f) }); n != 0 {
			t.Errorf("an overwrite with frame %d allocates %.0f times", i, n)
		}
	}
	flip := testing.AllocsPerRun(20, func() {
		d.Write(ks[0], frames[0])
		d.Write(ks[0], frames[1])
	})
	if flip != 0 {
		t.Errorf("a key flipping between a random and a zero-tailed frame allocates %.0f times", flip)
	}
	refill := testing.AllocsPerRun(20, func() {
		d.Fail()
		d.Replace()
		for i, k := range ks {
			d.Write(k, frames[i%2])
		}
	})
	if refill > keys {
		t.Errorf("Fail, Replace and a refill of %d frames allocate %.0f times; only the %d new key strings may", keys, refill, keys)
	}
}

// carved is the memory a device has carved for slots, and filled what of it
// the slots handed out and the tails skipped take: the part ever written.
func (d *Device) carved() (n int) {
	for _, s := range d.slabs {
		n += len(s)
	}
	return n
}

func (d *Device) filled() int {
	n := d.carved() - len(d.slab)
	for _, s := range d.slabs[d.next:] {
		n -= len(s)
	}
	return n
}

// TestDeviceFootprint pins what the media hold: random 4100-byte frames fill
// the geometric slabs to within 1% of their bytes, zero-payload frames fill
// under 1% of theirs, and a device holding 32 frames — serve_hot's load —
// carves no more than its first two slabs, 192 KiB.
func TestDeviceFootprint(t *testing.T) {
	const frames, size = 1000, 4100
	rng := rand.New(rand.NewPCG(9, 9))
	fill := func(n int, frame func() []byte) *Device {
		d := New(0)
		for i := range n {
			if err := d.Write([]byte(fmt.Sprint(i)), frame()); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	for _, tc := range []struct {
		name  string
		frame func() []byte
		most  float64 // of the frames' bytes
	}{
		{"random", func() []byte { return randomFrame(rng, size) }, 1.01},
		{"zero-payload", func() []byte { return zeroTailed(rng, size) }, 0.01},
	} {
		if got := fill(frames, tc.frame).filled(); float64(got) > tc.most*frames*size {
			t.Errorf("%d %s frames fill %d bytes of slabs, %.4f× their %d", frames, tc.name, got, float64(got)/(frames*size), frames*size)
		}
	}
	if got := fill(32, func() []byte { return randomFrame(rng, size) }).carved(); got > 192<<10 {
		t.Errorf("a device holding 32 frames carves %d bytes, over 192 KiB", got)
	}
}

// TestStateReadsWithoutLock: State answers while another goroutine holds the
// device's lock — it is the lock-free probe planning makes per node.
func TestStateReadsWithoutLock(t *testing.T) {
	d := New(0)
	d.SetOffline()
	d.mu.Lock()
	defer d.mu.Unlock()
	got := make(chan State, 1)
	go func() { got <- d.State() }()
	select {
	case st := <-got:
		if st != Offline {
			t.Errorf("state = %v, want offline", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("State waits for the device lock")
	}
}

// TestEpochMovesOnlyOnLoss: the epoch moves when the medium loses frames
// (Fail, Replace, Lose) and for nothing else — writes, the owner's deletes and
// every state change that keeps the data leave it alone.
func TestEpochMovesOnlyOnLoss(t *testing.T) {
	d := New(0)
	e := d.Epoch()
	keep := func(what string) {
		t.Helper()
		if got := d.Epoch(); got != e {
			t.Fatalf("%s moved the epoch %d → %d", what, e, got)
		}
	}
	move := func(what string) {
		t.Helper()
		if got := d.Epoch(); got == e {
			t.Fatalf("%s left the epoch at %d", what, e)
		}
		e = d.Epoch()
	}
	d.Write([]byte("a"), []byte("x"))
	d.Write([]byte("b"), []byte("y"))
	keep("Write")
	d.Delete([]byte("b"))
	keep("Delete")
	d.PowerOff()
	d.PowerOn()
	d.SetOffline()
	d.SetOnline()
	keep("a power or reachability cycle")
	d.Lose([]byte("a"))
	move("Lose")
	if d.Holds([]byte("a"), Online) {
		t.Error("Lose left the frame in place")
	}
	d.Fail()
	move("Fail")
	d.Replace()
	move("Replace")
}

// BenchmarkDeviceWrite is the write a Put repeats on every device: an
// overwrite of a held key, with a random frame (kept whole after one byte's
// test) and a zero-tailed frame (kept as its prefix after a scan of its
// tail). Both run at 0 allocs/op.
func BenchmarkDeviceWrite(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	for _, bc := range []struct {
		name  string
		frame []byte
	}{{"random", randomFrame(rng, 4100)}, {"zero-tailed", zeroTailed(rng, 4100)}} {
		b.Run(bc.name, func(b *testing.B) {
			d := New(0)
			ks := make([][]byte, 64)
			for i := range ks {
				ks[i] = []byte(fmt.Sprintf("obj/%d/7", i))
				d.Write(ks[i], bc.frame)
			}
			b.SetBytes(int64(len(bc.frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Write(ks[i%len(ks)], bc.frame)
			}
		})
	}
}
