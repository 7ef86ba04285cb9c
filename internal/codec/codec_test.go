package codec

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(12, 34)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := New(g, 0); err == nil {
		t.Error("block size 0 accepted")
	}
	c, err := New(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockSize() != 64 || c.Capacity() != 48*64 || c.Graph() != g {
		t.Error("accessors wrong")
	}
}

func TestEncodeDecodeRoundTripNoLoss(t *testing.T) {
	g := testGraph(t)
	c, _ := New(g, 32)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	blocks, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 96 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	got, err := c.Decode(blocks, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("round trip mismatch")
	}
}

func TestEncodeTooLarge(t *testing.T) {
	g := testGraph(t)
	c, _ := New(g, 4)
	if _, err := c.Encode(make([]byte, 48*4+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestDecodeAfterErasures(t *testing.T) {
	g := testGraph(t)
	c, _ := New(g, 16)
	payload := make([]byte, c.Capacity())
	rng := rand.New(rand.NewPCG(9, 9))
	for i := range payload {
		payload[i] = byte(rng.IntN(256))
	}
	blocks, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Erase 4 nodes — a screened+tested graph tolerates small losses; use
	// the structural decoder to pick a recoverable pattern.
	d := decode.New(g)
	erased := []int{0, 7, 50, 90}
	if !d.Recoverable(erased) {
		t.Skip("pattern unrecoverable for this draw")
	}
	for _, v := range erased {
		blocks[v] = nil
	}
	got, err := c.Decode(blocks, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("decoded payload differs")
	}
	// Repaired blocks must match a fresh encode.
	fresh, _ := c.Encode(payload)
	for _, v := range erased {
		if !bytes.Equal(blocks[v], fresh[v]) {
			t.Errorf("repaired block %d differs from original", v)
		}
	}
}

func TestDecodeUnrecoverable(t *testing.T) {
	// A mirrored graph loses data when a pair dies.
	b := graph.NewBuilder(4)
	r := b.AddLevel(0, 4, 4)
	g := b.Graph()
	for i := 0; i < 4; i++ {
		g.SetNeighbors(r+i, []int{i})
	}
	c, _ := New(g, 8)
	blocks, err := c.Encode([]byte("12345678abcdefgh"))
	if err != nil {
		t.Fatal(err)
	}
	blocks[0] = nil
	blocks[4] = nil
	if _, err := c.Decode(blocks, 16); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("Decode = %v, want ErrUnrecoverable", err)
	}
}

func TestRepairValidation(t *testing.T) {
	g := testGraph(t)
	c, _ := New(g, 8)
	if err := c.Repair(make([][]byte, 5)); err == nil {
		t.Error("wrong block count accepted")
	}
	blocks := make([][]byte, 96)
	blocks[0] = make([]byte, 7)
	if err := c.Repair(blocks); err == nil {
		t.Error("wrong block length accepted")
	}
}

func TestEncodeChecksValidation(t *testing.T) {
	g := testGraph(t)
	c, _ := New(g, 8)
	if err := c.EncodeChecks(make([][]byte, 3)); err == nil {
		t.Error("wrong block count accepted")
	}
	blocks := make([][]byte, 96)
	for i := 0; i < 48; i++ {
		blocks[i] = make([]byte, 8)
	}
	blocks[3] = make([]byte, 5)
	if err := c.EncodeChecks(blocks); err == nil {
		t.Error("short data block accepted")
	}
}

func TestCheckBlocksAreXOR(t *testing.T) {
	g := testGraph(t)
	c, _ := New(g, 4)
	payload := make([]byte, c.Capacity())
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	blocks, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := xorStripe(g, 4, payload)
	for r := g.Data; r < g.Total; r++ {
		if !bytes.Equal(blocks[r], want[r]) {
			t.Fatalf("check %d is not the XOR of its lefts", r)
		}
	}
}

// xorStripe is the byte-at-a-time reference stripe of payload: the payload
// cut into data blocks of bs bytes, the last one zero-padded and any past it
// all zeros, then every check block, level by level, the XOR of its lefts.
func xorStripe(g *graph.Graph, bs int, payload []byte) [][]byte {
	blocks := make([][]byte, g.Total)
	for v := range blocks {
		blocks[v] = make([]byte, bs)
		if v < g.Data {
			copy(blocks[v], payload[min(v*bs, len(payload)):])
			continue
		}
		for _, l := range g.LeftNeighbors(v) {
			xorIntoRef(blocks[v], blocks[l])
		}
	}
	return blocks
}

func TestDecodePayloadLenBounds(t *testing.T) {
	g := testGraph(t)
	c, _ := New(g, 4)
	blocks, _ := c.Encode([]byte("hi"))
	if _, err := c.Decode(blocks, -1); err == nil {
		t.Error("negative payload length accepted")
	}
	if _, err := c.Decode(blocks, c.Capacity()+1); err == nil {
		t.Error("oversized payload length accepted")
	}
}

// Property: whenever the structural decoder says an erasure pattern is
// recoverable, the codec reconstructs the exact payload; when it says
// unrecoverable, the codec returns ErrUnrecoverable.
func TestQuickCodecAgreesWithStructuralDecoder(t *testing.T) {
	g := testGraph(t)
	c, _ := New(g, 8)
	d := decode.New(g)
	f := func(seed uint64, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		payload := make([]byte, c.Capacity())
		for i := range payload {
			payload[i] = byte(rng.IntN(256))
		}
		blocks, err := c.Encode(payload)
		if err != nil {
			return false
		}
		k := int(kRaw) % 40
		perm := rng.Perm(g.Total)
		erased := perm[:k]
		for _, v := range erased {
			blocks[v] = nil
		}
		recoverable := d.Recoverable(erased)
		got, err := c.Decode(blocks, len(payload))
		if recoverable {
			return err == nil && bytes.Equal(got, payload)
		}
		return errors.Is(err, ErrUnrecoverable)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestXorInto(t *testing.T) {
	a := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	b := []byte{255, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255}
	want := make([]byte, len(a))
	for i := range a {
		want[i] = a[i] ^ b[i]
	}
	xorInto(a, b)
	if !bytes.Equal(a, want) {
		t.Errorf("xorInto = %v, want %v", a, want)
	}
}

func BenchmarkEncode96x4KiB(b *testing.B) {
	g := testGraph(b)
	c, _ := New(g, 4096)
	payload := make([]byte, c.Capacity())
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepair5Lost times the pooled RepairWith, the repair scrub and
// RepairFrom run, on a stripe with five blocks lost; 0 allocs/op.
func BenchmarkRepair5Lost(b *testing.B) {
	benchDegraded(b, []int{0, 1, 50, 60, 70}, func(c *Codec, ws *Workspace, work [][]byte, _ []byte) error {
		return c.RepairWith(ws, work)
	})
}

// BenchmarkDecodeInto4Lost times a degraded read's decode: four data blocks
// lost, every other block present, the payload appended to a reused buffer;
// 0 allocs/op.
func BenchmarkDecodeInto4Lost(b *testing.B) {
	benchDegraded(b, []int{3, 17, 29, 41}, func(c *Codec, ws *Workspace, work [][]byte, dst []byte) error {
		_, err := c.DecodeInto(ws, dst, work, c.Capacity())
		return err
	})
}

// benchDegraded times op on one reused, warmed workspace over a 4 KiB-block
// stripe with the lost blocks missing.
func benchDegraded(b *testing.B, lost []int, op func(c *Codec, ws *Workspace, work [][]byte, dst []byte) error) {
	g := testGraph(b)
	c, _ := New(g, 4096)
	payload := make([]byte, c.Capacity())
	blocks, _ := c.Encode(payload)
	if !decode.New(g).Recoverable(lost) {
		b.Skip("pattern unrecoverable for this draw")
	}
	ws := c.NewWorkspace()
	work := make([][]byte, len(blocks))
	dst := make([]byte, 0, c.Capacity())
	run := func() {
		copy(work, blocks)
		for _, v := range lost {
			work[v] = nil
		}
		if err := op(c, ws, work, dst); err != nil {
			b.Fatal(err)
		}
	}
	run() // builds the workspace's decoder and arena
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
