package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"testing"
	"testing/quick"
)

// frameBlock is the reference frame the tests compare frameAppend against:
// the payload's checksum, then a copy of the payload, in a fresh buffer.
func frameBlock(payload []byte) []byte {
	out := make([]byte, frameOverhead+len(payload))
	binary.BigEndian.PutUint32(out, frameSum(payload))
	copy(out[frameOverhead:], payload)
	return out
}

// blockKey builds one block key ("name/stripe/node") in a fresh buffer, for
// tests that reach past the store to its devices.
func blockKey(name string, stripe, node int) []byte {
	var k keyBuf
	k.stripe(name, stripe)
	return k.key(node)
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAA}, 4096)} {
		framed := frameBlock(payload)
		got, ok := unframeBlock(framed)
		if !ok {
			t.Fatalf("unframe rejected valid frame of %d bytes", len(payload))
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload mismatch")
		}
	}
}

func TestUnframeDetectsCorruption(t *testing.T) {
	framed := frameBlock([]byte("archival payload"))
	for bit := 0; bit < len(framed)*8; bit += 7 {
		tampered := append([]byte(nil), framed...)
		tampered[bit/8] ^= 1 << (bit % 8)
		if _, ok := unframeBlock(tampered); ok {
			t.Fatalf("single-bit flip at bit %d undetected", bit)
		}
	}
	if _, ok := unframeBlock([]byte{1, 2}); ok {
		t.Error("truncated frame accepted")
	}
	if _, ok := unframeBlock(nil); ok {
		t.Error("nil frame accepted")
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		got, ok := unframeBlock(frameBlock(payload))
		return ok && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGetSurvivesBitRot: corrupt stored blocks in place; the store must
// detect the rot, treat the blocks as erasures, and reconstruct.
func TestGetSurvivesBitRot(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	data := payload(900, 21)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	// Flip bits in three stored blocks directly on the devices.
	for _, node := range []int{2, 40, 90} {
		key := blockKey("obj", 0, node)
		framed, err := s.Devices()[node].Read(key)
		if err != nil {
			t.Fatal(err)
		}
		framed[10] ^= 0xFF
		if err := s.Devices()[node].Write(key, framed); err != nil {
			t.Fatal(err)
		}
	}
	got, stats, err := s.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("payload corrupted despite checksums")
	}
	if stats.CorruptBlocks == 0 {
		t.Error("corruption not counted")
	}
	t.Logf("get stats with bit rot: %+v", stats)
}

func TestScrubReportsCorruption(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64, FirstFailure: 4})
	if err := s.PutCtx(ctx, "obj", payload(300, 22)); err != nil {
		t.Fatal(err)
	}
	key := blockKey("obj", 0, 5)
	framed, _ := s.Devices()[5].Read(key)
	framed[0] ^= 1
	s.Devices()[5].Write(key, framed)

	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Stripes[0]
	if len(h.Corrupt) != 1 || h.Corrupt[0] != 5 {
		t.Errorf("Corrupt = %v", h.Corrupt)
	}
	if len(h.Repaired) == 0 {
		t.Error("scrub did not rewrite the rotted block")
	}
	// After repair the block must verify again.
	rep2, err := s.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Stripes[0].Corrupt) != 0 || len(rep2.Stripes[0].Missing) != 0 {
		t.Errorf("rot persists after repair: %+v", rep2.Stripes[0])
	}
}

func TestReadWriteBlock(t *testing.T) {
	ctx := context.Background()
	s := testStore(t, Config{BlockSize: 64})
	data := payload(500, 23)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	b, err := s.ReadBlockCtx(ctx, "obj", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 64 || !bytes.Equal(b, data[:64]) {
		t.Error("block content wrong")
	}
	// Out of range and missing cases.
	if _, err := s.ReadBlockCtx(ctx, "obj", 5, 0, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("stripe oob: %v", err)
	}
	if _, err := s.ReadBlockCtx(ctx, "obj", 0, 200, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("node oob: %v", err)
	}
	if _, err := s.ReadBlockCtx(ctx, "nope", 0, 0, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown object: %v", err)
	}
	// A failed device's block is gone.
	s.Devices()[0].Fail()
	if _, err := s.ReadBlockCtx(ctx, "obj", 0, 0, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("failed device: %v", err)
	}
	// WriteBlockCtx restores it after replacement.
	s.Devices()[0].Replace()
	if err := s.WriteBlockCtx(ctx, "obj", 0, 0, b); err != nil {
		t.Fatal(err)
	}
	back, err := s.ReadBlockCtx(ctx, "obj", 0, 0, nil)
	if err != nil || !bytes.Equal(back, b) {
		t.Errorf("restored block wrong: %v", err)
	}
	// Size validation.
	if err := s.WriteBlockCtx(ctx, "obj", 0, 0, []byte("short")); err == nil {
		t.Error("short block accepted")
	}
}

func TestStatAndLayout(t *testing.T) {
	s := testStore(t, Config{BlockSize: 32})
	if _, err := s.Stat("nope"); !errors.Is(err, ErrNotFound) {
		t.Error("unknown Stat")
	}
	if err := s.PutCtx(ctx, "obj", payload(5000, 24)); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Stat("obj")
	if err != nil || obj.Size != 5000 || obj.Stripes != 4 {
		t.Errorf("Stat = %+v, %v", obj, err)
	}
	lay := s.Layout()
	if lay.BlockSize != 32 || lay.StripeCapacity != 48*32 || lay.NodesPerStripe != 96 || lay.DataNodes != 48 {
		t.Errorf("Layout = %+v", lay)
	}
}

func TestPutShell(t *testing.T) {
	ctx := context.Background()
	s := testStore(t, Config{BlockSize: 32})
	if err := s.PutShell("x", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutShell("x", 100, 1); !errors.Is(err, ErrExists) {
		t.Error("duplicate shell accepted")
	}
	if err := s.PutShell("y", -1, 1); err == nil {
		t.Error("negative size accepted")
	}
	if err := s.PutShell("z", 1, 0); err == nil {
		t.Error("zero stripes accepted")
	}
	// Exactly the stripe count a Put of the size records is accepted.
	stripeCap := s.Layout().StripeCapacity
	for i, sh := range []struct{ size, stripes int }{{0, 1}, {stripeCap, 1}, {stripeCap + 1, 2}} {
		if err := s.PutShell("ok"+strconv.Itoa(i), sh.size, sh.stripes); err != nil {
			t.Errorf("consistent shell (size %d, stripes %d): %v", sh.size, sh.stripes, err)
		}
	}
	// A shell with all blocks written becomes retrievable.
	data := payload(100, 25)
	blocks, err := encodeFor(s, data)
	if err != nil {
		t.Fatal(err)
	}
	for node, b := range blocks {
		if err := s.WriteBlockCtx(ctx, "x", 0, node, b); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := s.GetCtx(ctx, "x")
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("shell get: %v", err)
	}
}

// A shell whose size and stripe count disagree is refused: the read path
// sizes each stripe's payload from the two, so an accepted one would panic a
// stripe-pipeline goroutine (GetStream) or ReadStripeInto, or make GetCtx
// allocate the claimed size up front. Each case reads the name after the
// refusal: it must not exist.
func TestPutShellRejectsInconsistentStripes(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name          string
		size, stripes int
		read          func(s *Store, name string) error
	}{
		{"empty_with_5_stripes", 0, 5, func(s *Store, name string) error {
			_, _, err := s.GetStream(ctx, name, io.Discard)
			return err
		}},
		{"stripe_past_size", 0, 5, func(s *Store, name string) error {
			_, _, err := s.ReadStripe(ctx, name, 1)
			return err
		}},
		{"terabyte_in_1_stripe", 1 << 40, 1, func(s *Store, name string) error {
			_, _, err := s.GetCtx(ctx, name)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testStore(t, Config{BlockSize: 32})
			if err := s.PutShell(tc.name, tc.size, tc.stripes); err == nil {
				t.Fatalf("PutShell(size %d, stripes %d) accepted", tc.size, tc.stripes)
			}
			if err := tc.read(s, tc.name); !errors.Is(err, ErrNotFound) {
				t.Errorf("read of a refused shell: %v, want ErrNotFound", err)
			}
		})
	}
}

// encodeFor encodes a payload with the store's codec parameters (test
// helper mirroring what a replica sender does).
func encodeFor(s *Store, data []byte) ([][]byte, error) {
	return s.codec.Encode(data)
}
