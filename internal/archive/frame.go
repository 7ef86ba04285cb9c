package archive

import (
	"encoding/binary"
	"hash/crc32"
)

// Archival storage must assume silent corruption (bit rot) as well as
// whole-device loss. Every block is therefore stored framed with a
// CRC-32C: a corrupted block is detected on read and treated as an
// erasure, which the graph's parity then repairs — detected corruption
// costs no more than a missing block.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const frameOverhead = 4

// frameAppend prepends the payload's checksum (see frameSum) in buf (reusing
// its capacity, truncating its length) and returns the frame; the payload is
// copied, never aliased. Every write path frames every block through one
// per-worker buffer, relying on the Backend contract that Write does not
// retain the slice after returning.
func frameAppend(buf []byte, payload []byte) []byte {
	buf = append(buf[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf, frameSum(payload))
	return append(buf, payload...)
}

// frameSum is CRC-32C over the payload's length followed by its bytes. The
// length prefix closes a truncation blind spot of the bare CRC: a CRC does
// not encode length, and in the degenerate register state (checksum
// 0xFFFFFFFF) trailing zero bytes leave it unchanged, so a frame whose
// payload ended in zeros could be truncated without the checksum noticing
// (e.g. payload ff ff ff ff 00 and its 1-byte truncation share checksum
// ffffffff). With the length folded in, any truncation is a mismatch.
// The length prefix is folded in with a table-driven loop rather than
// crc32.Update over a stack buffer: Update leaks its slice parameter, so
// the buffer would escape and the read hot loop would allocate per frame.
// The loop computes the identical CRC over the same 8 big-endian bytes.
func frameSum(payload []byte) uint32 {
	reg := ^uint32(0)
	n := uint64(len(payload))
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(n >> uint(shift))
		reg = castagnoli[byte(reg)^b] ^ (reg >> 8)
	}
	return crc32.Update(^reg, castagnoli, payload)
}

// unframeBlock verifies and strips the checksum, reporting ok=false for
// truncated or corrupted frames.
//
// Aliasing contract: the returned payload ALIASES framed's backing array
// (framed[4:]); no copy is made. Callers that retain the payload must not
// mutate it — and must not let anything else mutate framed — for the
// payload's lifetime. Within this package the alias is safe because the
// codec only reads the blocks it is handed (what it rebuilds is carved from
// the stripe scratch's own arena, never written over a block that was read)
// and every write path re-frames into the scratch's frameBuf before the
// backend sees the bytes. A payload may alias the caller's buffer: a Get
// reads a data block's frame into its place in the dst it decodes into, so
// the block is already where the payload wants it, and ReadBlockCtx, which
// hands the payload on, reads its frame into its caller's dst or, with none,
// a fresh slice.
func unframeBlock(framed []byte) ([]byte, bool) {
	if len(framed) < frameOverhead {
		return nil, false
	}
	want := binary.BigEndian.Uint32(framed)
	payload := framed[frameOverhead:]
	if frameSum(payload) != want {
		return nil, false
	}
	return payload, true
}
