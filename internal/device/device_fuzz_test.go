package device

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
)

// fuzzLens are the frame lengths the oracle draws from: empty, odd, either
// side of tailSlot, and a whole 4100-byte frame and its torn prefix.
var fuzzLens = []int{0, 1, 7, tailSlot - 1, tailSlot, tailSlot + 1, tailSlot + 8, 100, 4099, 4100}

// fuzzFrame builds a frame of one of five shapes: random; all zero;
// zero-tailed behind a random prefix of at most tailSlot bytes; zero but for
// one byte at or past tailSlot (the tail check's near miss); random ending in
// a zero byte.
func fuzzFrame(rng *rand.Rand, n int, shape byte) []byte {
	b := make([]byte, n)
	switch shape % 5 {
	case 0, 4:
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		if shape%5 == 4 && n > 0 {
			b[n-1] = 0
		}
	case 2:
		for i := range b[:min(n, rng.IntN(tailSlot+1))] {
			b[i] = byte(rng.IntN(256))
		}
	case 3:
		if n > tailSlot {
			b[tailSlot+rng.IntN(n-tailSlot)] = byte(1 + rng.IntN(255))
		}
	}
	return b
}

// maxFuzzOps bounds the operations one input runs: each is checked against
// every key, and the engine's longest inputs would otherwise run for seconds.
const maxFuzzOps = 256

// FuzzDeviceMatchesMap decodes its input into device operations — Write of
// every frame shape, overwrite (a key flipping between kept-whole and
// kept-as-prefix), Delete, Lose, Fail+Replace and ReadInto into a dst of
// random length and capacity, stale bytes in it — and checks each against a
// map of the frames written. After every operation every key reads back its
// exact bytes or ErrNotFound, and Len, Holds and the logical byte counts of
// Stats agree with the map; a caller mutating the buffer it wrote or the
// result it read never reaches the device.
func FuzzDeviceMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 9, 0, 0, 0, 9, 2, 5, 0, 0, 0})
	f.Add([]byte{0, 1, 9, 0, 0, 1, 9, 1, 0, 1, 9, 0, 1, 1, 0, 0, 5, 1, 40, 3})
	f.Add([]byte{0, 2, 5, 2, 0, 3, 6, 3, 2, 2, 0, 0, 3, 3, 0, 0, 4, 0, 0, 0, 0, 2, 9, 2})
	f.Add([]byte{0, 4, 3, 4, 0, 5, 0, 1, 5, 4, 1, 0, 5, 5, 200, 9, 0, 4, 8, 3, 0, 4, 8, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 4*maxFuzzOps)]
		rng := rand.New(rand.NewPCG(uint64(len(ops)), 1))
		d := New(0)
		want := map[string][]byte{}
		var st Stats
		keys := make([][]byte, 6)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("obj/%d", i))
		}
		check := func(step int) {
			t.Helper()
			if d.Len() != len(want) {
				t.Fatalf("step %d: Len %d, want %d", step, d.Len(), len(want))
			}
			for _, k := range keys {
				w, ok := want[string(k)]
				if d.Holds(k, Online) != ok {
					t.Fatalf("step %d: Holds(%s) = %v, want %v", step, k, !ok, ok)
				}
				got, err := d.Read(k)
				if !ok {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: Read(%s) of a deleted frame: %d bytes, %v", step, k, len(got), err)
					}
					continue
				}
				st.Reads++
				st.BytesRead += int64(len(w))
				if err != nil || !bytes.Equal(got, w) {
					t.Fatalf("step %d: Read(%s) = %d bytes, %v; want %d bytes %x", step, k, len(got), err, len(w), w)
				}
				for i := range got { // the result is the caller's
					got[i] ^= 0xFF
				}
			}
			if got := d.Stats(); got != st {
				t.Fatalf("step %d: Stats %+v, want %+v", step, got, st)
			}
		}
		for step := 0; len(ops) >= 4; step++ {
			op, k, arg, shape := ops[0]%6, keys[int(ops[1])%len(keys)], ops[2], ops[3]
			ops = ops[4:]
			switch op {
			case 0, 1: // Write, or an overwrite when the key holds a frame
				b := fuzzFrame(rng, fuzzLens[int(arg)%len(fuzzLens)], shape)
				if err := d.Write(k, b); err != nil {
					t.Fatal(err)
				}
				want[string(k)] = bytes.Clone(b)
				st.Writes++
				st.BytesWritten += int64(len(b))
				for i := range b { // the device keeps its own copy
					b[i] ^= 0xA5
				}
			case 2:
				if err := d.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(want, string(k))
			case 3:
				d.Lose(k)
				delete(want, string(k))
			case 4:
				d.Fail()
				d.Replace()
				clear(want)
			case 5: // ReadInto a dst of random length and capacity, full of stale bytes
				dst := bytes.Repeat([]byte{0xA5}, int(arg)*20)[:int(shape)%(int(arg)*20+1)]
				got, err := d.ReadInto(k, dst)
				w, ok := want[string(k)]
				if !ok {
					if got != nil || !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: ReadInto(%s) of a deleted frame: %d bytes, %v", step, k, len(got), err)
					}
					break
				}
				st.Reads++
				st.BytesRead += int64(len(w))
				if err != nil || !bytes.Equal(got, w) {
					t.Fatalf("step %d: ReadInto(%s, cap %d) = %d bytes, %v; want %d bytes %x", step, k, cap(dst), len(got), err, len(w), w)
				}
				if len(w) > 0 && cap(dst) >= len(w) && &got[0] != &dst[:1][0] {
					t.Fatalf("step %d: ReadInto(%s) grew a dst of capacity %d for %d bytes", step, k, cap(dst), len(w))
				}
				for i := range got {
					got[i] ^= 0xFF
				}
			}
			check(step)
		}
	})
}
