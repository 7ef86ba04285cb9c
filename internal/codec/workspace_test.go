package codec

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"tornado/internal/graph"
)

// TestXorIntoMatchesReference cross-checks the word-wide kernel against the
// byte-at-a-time reference across sizes that exercise the 64-byte blocks,
// the 8-byte tail, and the byte tail.
func TestXorIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 1000, 4096} {
		dst := make([]byte, n)
		src := make([]byte, n)
		for i := range dst {
			dst[i] = byte(rng.IntN(256))
			src[i] = byte(rng.IntN(256))
		}
		want := append([]byte(nil), dst...)
		xorIntoRef(want, src)
		xorInto(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorInto mismatch at n=%d", n)
		}
	}
}

// TestEncoderMatchesEncode proves the arena encoder is bit-identical to the
// allocating Encode across payload sizes including zero, partial-final-block,
// and full-capacity stripes.
func TestEncoderMatchesEncode(t *testing.T) {
	g := testGraph(t)
	c, err := New(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	enc := c.NewEncoder()
	rng := rand.New(rand.NewPCG(1, 9))
	for _, n := range []int{0, 1, 63, 64, 65, c.Capacity() / 2, c.Capacity() - 1, c.Capacity()} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(rng.IntN(256))
		}
		want, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := enc.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("n=%d block %d differs between Encoder and Encode", n, i)
			}
		}
	}
	if _, err := enc.Encode(make([]byte, c.Capacity()+1)); err == nil {
		t.Fatal("Encoder accepted an oversized payload")
	}
}

// TestEncoderReuseDoesNotLeakPriorStripe guards the arena refill: a short
// payload after a long one must see zero padding, not the prior stripe's
// bytes.
func TestEncoderReuseDoesNotLeakPriorStripe(t *testing.T) {
	g := testGraph(t)
	c, err := New(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	enc := c.NewEncoder()
	long := bytes.Repeat([]byte{0xAA}, c.Capacity())
	if _, err := enc.Encode(long); err != nil {
		t.Fatal(err)
	}
	short := []byte{1, 2, 3}
	got, err := enc.Encode(short)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Encode(short)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("block %d differs after reuse: prior stripe leaked into padding", i)
		}
	}
}

// TestEncoderReadsPayloadInPlace: the Encoder's full data blocks are the
// payload's own bytes, and the rest of the stripe comes from its arena.
// Payloads of every shape, each shorter than the one before so that a byte an
// earlier stripe left in the arena would show, must encode to the reference
// stripe — on a generated graph, and on a hand-built one whose cascade has
// checks of degree 1 and 2.
func TestEncoderReadsPayloadInPlace(t *testing.T) {
	b := graph.NewBuilder(4)
	r1 := b.AddLevel(0, 4, 3)
	r2 := b.AddLevel(r1, 3, 2)
	small := b.Graph()
	small.SetNeighbors(r1, []int{0, 1, 2})
	small.SetNeighbors(r1+1, []int{3})
	small.SetNeighbors(r1+2, []int{1, 3})
	small.SetNeighbors(r2, []int{r1})
	small.SetNeighbors(r2+1, []int{r1 + 1, r1 + 2})
	const bs = 16
	rng := rand.New(rand.NewPCG(5, 2))
	for _, g := range []*graph.Graph{testGraph(t), small} {
		c, err := New(g, bs)
		if err != nil {
			t.Fatal(err)
		}
		enc := c.NewEncoder()
		k := g.Data / 2
		for _, n := range []int{c.Capacity(), k*bs + 5, bs, bs - 1, 1, 0} {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(rng.IntN(256))
			}
			got, err := enc.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			want := xorStripe(g, bs, payload)
			for v := range want {
				if !bytes.Equal(got[v], want[v]) {
					t.Fatalf("%d data nodes, payload %d bytes: block %d differs from the reference", g.Data, n, v)
				}
			}
			for i := 0; i < n/bs; i++ {
				if &got[i][0] != &payload[i*bs] {
					t.Errorf("%d data nodes, payload %d bytes: full data block %d is a copy", g.Data, n, i)
				}
			}
		}
	}
}

// TestRepairWithMatchesRepair erases random subsets and checks the
// workspace repair agrees with the reference repair, including the
// unrecoverable verdict.
func TestRepairWithMatchesRepair(t *testing.T) {
	g := testGraph(t)
	c, err := New(g, 48)
	if err != nil {
		t.Fatal(err)
	}
	ws := c.NewWorkspace()
	rng := rand.New(rand.NewPCG(3, 3))
	payload := make([]byte, c.Capacity())
	for i := range payload {
		payload[i] = byte(rng.IntN(256))
	}
	full, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		k := rng.IntN(8)
		a := make([][]byte, len(full))
		b := make([][]byte, len(full))
		for i := range full {
			a[i] = append([]byte(nil), full[i]...)
			b[i] = append([]byte(nil), full[i]...)
		}
		for j := 0; j < k; j++ {
			v := rng.IntN(len(full))
			a[v], b[v] = nil, nil
		}
		errA := repairRef(c, a)
		errB := c.RepairWith(ws, b)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: Repair err %v, RepairWith err %v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		for i := range a {
			if (a[i] == nil) != (b[i] == nil) {
				t.Fatalf("trial %d: block %d presence differs", trial, i)
			}
			if a[i] != nil && !bytes.Equal(a[i], b[i]) {
				t.Fatalf("trial %d: block %d bytes differ", trial, i)
			}
		}
	}
}

// TestResumeRepairKeepsEarlierBlocks: a stripe that lost too much for
// RepairWith is handed its missing data blocks from outside; ResumeRepair then
// completes it to exactly the encoded stripe, and what the first peel had
// rebuilt is neither recycled nor overwritten by the second.
func TestResumeRepairKeepsEarlierBlocks(t *testing.T) {
	g := testGraph(t)
	c, err := New(g, 48)
	if err != nil {
		t.Fatal(err)
	}
	ws := c.NewWorkspace()
	rng := rand.New(rand.NewPCG(5, 5))
	payload := make([]byte, c.Capacity())
	for i := range payload {
		payload[i] = byte(rng.IntN(256))
	}
	full, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for trial := 0; trial < 200; trial++ {
		blocks := make([][]byte, len(full))
		for i := range full {
			if rng.IntN(3) > 0 { // about a third erased: mostly past what peeling absorbs
				blocks[i] = full[i]
			}
		}
		if c.RepairWith(ws, blocks) == nil {
			continue
		}
		resumed++
		first := make([][]byte, len(blocks))
		copy(first, blocks)
		for v := 0; v < g.Data; v++ {
			if blocks[v] == nil {
				blocks[v] = append([]byte(nil), full[v]...)
			}
		}
		if err := c.ResumeRepair(ws, blocks); err != nil {
			t.Fatalf("trial %d: all data present, ResumeRepair: %v", trial, err)
		}
		for i := range full {
			if !bytes.Equal(blocks[i], full[i]) {
				t.Fatalf("trial %d: block %d is not the encoded block", trial, i)
			}
			if first[i] != nil && &first[i][0] != &blocks[i][0] {
				t.Fatalf("trial %d: block %d, present after the first peel, was replaced", trial, i)
			}
		}
	}
	if resumed < 50 {
		t.Fatalf("only %d of 200 trials needed a resume", resumed)
	}
}

// TestDecodeIntoRoundTrip streams several stripes through one workspace and
// one payload buffer, checking each decode against the source bytes.
func TestDecodeIntoRoundTrip(t *testing.T) {
	g := testGraph(t)
	c, err := New(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	ws := c.NewWorkspace()
	rng := rand.New(rand.NewPCG(5, 5))
	var buf []byte
	for stripe := 0; stripe < 10; stripe++ {
		n := 1 + rng.IntN(c.Capacity())
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(rng.IntN(256))
		}
		blocks, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		// Knock out a few blocks so the decode actually repairs.
		for j := 0; j < 3; j++ {
			blocks[rng.IntN(len(blocks))] = nil
		}
		buf = buf[:0]
		buf, err = c.DecodeInto(ws, buf, blocks, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatalf("stripe %d: DecodeInto mismatch", stripe)
		}
	}
}

// TestEncoderZeroAllocs is the allocation-regression gate on the encode hot
// loop: a warmed Encoder must not allocate per stripe, full or short.
func TestEncoderZeroAllocs(t *testing.T) {
	g := testGraph(t)
	c, err := New(g, 4096)
	if err != nil {
		t.Fatal(err)
	}
	enc := c.NewEncoder()
	for _, n := range []int{c.Capacity(), c.Capacity()/3 + 5} {
		payload := make([]byte, n)
		if _, err := enc.Encode(payload); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := enc.Encode(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Encoder.Encode of %d bytes allocates %.1f/op; the encode hot loop must be allocation-free", n, allocs)
		}
	}
}
