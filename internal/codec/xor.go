package codec

import "crypto/subtle"

// xorInto sets dst ^= src for equal-length slices.
//
// This is the encoder's inner kernel — every parity byte the archive writes
// and every block it reconstructs flows through here — so it must not
// allocate and should run at memory bandwidth: subtle.XORBytes has an
// assembly loop on amd64 and arm64 and a word-wide one elsewhere.
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}

// xorIntoRef is the byte-at-a-time reference the tests cross-check the
// word kernel against.
func xorIntoRef(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}
