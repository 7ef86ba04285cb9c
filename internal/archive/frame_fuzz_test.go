package archive

import (
	"bytes"
	"testing"
)

// FuzzFrameRoundTrip fuzzes the frame layer from both directions. Treating
// the input as a payload, frame→unframe must round-trip bit-exactly, and a
// single-bit flip anywhere in the frame must be rejected. Treating the
// input as a raw frame off a device, unframeBlock must never panic and must
// only accept frames whose checksum genuinely matches — the property the
// whole silent-corruption defense rests on.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(bytes.Repeat([]byte{0xa5}, 64))
	f.Add([]byte{0, 0, 0, 0}) // frame-shaped: zero CRC, empty payload
	f.Add([]byte{0, 0, 0})    // shorter than the checksum prefix
	f.Add(make([]byte, 4096+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data is a payload.
		framed := frameBlock(data)
		if len(framed) != frameOverhead+len(data) {
			t.Fatalf("frame overhead: got %d bytes for %d-byte payload", len(framed), len(data))
		}
		payload, ok := unframeBlock(framed)
		if !ok {
			t.Fatalf("fresh frame rejected (payload %d bytes)", len(data))
		}
		if !bytes.Equal(payload, data) {
			t.Fatalf("round trip mangled payload: %x != %x", payload, data)
		}
		// The alias contract: payload must share framed's backing array.
		if len(data) > 0 && &payload[0] != &framed[frameOverhead] {
			t.Fatal("unframeBlock copied; documented contract says it aliases")
		}
		// frameAppend is frameBlock into a reused buffer: same frame, and
		// the payload copied even when it aliases another frame.
		if again := frameAppend(make([]byte, 1, 2), payload); !bytes.Equal(again, framed) {
			t.Fatalf("frameAppend diverged from frameBlock: %x != %x", again, framed)
		} else if len(data) > 0 && &again[frameOverhead] == &payload[0] {
			t.Fatal("frameAppend aliased its payload; write-backs rely on the copy")
		}

		// Any single-bit flip must be detected (CRC-32C catches all 1-bit
		// errors), as must truncation to any shorter length.
		if len(framed) > 0 {
			bit := int(framed[0]^framed[len(framed)-1]) % (len(framed) * 8)
			framed[bit/8] ^= 1 << (bit % 8)
			if _, ok := unframeBlock(framed); ok {
				t.Fatalf("accepted frame with bit %d flipped", bit)
			}
			framed[bit/8] ^= 1 << (bit % 8)
		}
		if len(framed) > frameOverhead {
			if _, ok := unframeBlock(framed[:len(framed)-1]); ok {
				t.Fatal("accepted truncated frame")
			}
		}

		// Direction 2: data is a raw (possibly hostile) frame. Must not
		// panic; acceptance implies re-framing the payload reproduces it.
		if payload, ok := unframeBlock(data); ok {
			if !bytes.Equal(frameBlock(payload), data) {
				t.Fatalf("accepted frame %x that frameBlock cannot reproduce", data)
			}
		} else if len(data) >= frameOverhead {
			// Rejected with a full-length prefix: the checksum must truly
			// mismatch, or the rejection is a false positive.
			if frameOk(data) {
				t.Fatalf("rejected frame %x with a valid checksum", data)
			}
		}
	})
}

// frameOk re-derives the accept decision independently of unframeBlock.
func frameOk(framed []byte) bool {
	if len(framed) < frameOverhead {
		return false
	}
	good := frameBlock(framed[frameOverhead:])
	return bytes.Equal(good, framed)
}
