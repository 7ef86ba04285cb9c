package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
)

// The harness is its own load generator: payloads, key streams and failure
// choices all derive from the run's seed through the PCG streams below, so
// the same seed gives the same inputs and the system under test only ever
// sees the generated inputs.
const (
	streamPayload  = 1   // payload bytes
	streamFailures = 2   // which devices fail
	streamClient   = 100 // + client index: that client's key stream
)

func pcg(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// payloads serves any number of distinct object payloads of one size out of a
// single seeded random buffer: object k is the window starting k·4099 bytes
// (mod 1 MiB) into it. Distinct k below 256 give distinct windows, reads are
// zero-copy, and the expected bytes of any object are at hand for the
// byte-for-byte comparison without keeping a copy per object.
type payloads struct {
	base []byte
	size int
}

const payloadSlack = 1 << 20

func newPayloads(seed uint64, size int) *payloads {
	rng := pcg(seed, streamPayload)
	base := make([]byte, size+payloadSlack)
	for i := 0; i+8 <= len(base); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			base[i+j] = byte(v >> (8 * j))
		}
	}
	return &payloads{base: base, size: size}
}

func (p *payloads) object(k int) []byte {
	off := (k * 4099) % payloadSlack
	return p.base[off : off+p.size]
}

func (p *payloads) reader(k int) *bytes.Reader { return bytes.NewReader(p.object(k)) }

// verifier is the io.Writer every Get and restore streams into: it compares
// what arrives with the expected payload byte for byte and keeps nothing.
type verifier struct {
	want []byte
	pos  int
	bad  bool
}

func (v *verifier) Write(p []byte) (int, error) {
	end := v.pos + len(p)
	if end > len(v.want) || !bytes.Equal(p, v.want[v.pos:end]) {
		v.bad = true
	}
	v.pos = end
	return len(p), nil
}

// ok reports whether exactly the expected bytes arrived.
func (v *verifier) ok() bool { return !v.bad && v.pos == len(v.want) }

func objectName(k int) string { return fmt.Sprintf("obj-%06d", k) }

// pickDistinct draws n distinct values in [0, limit) from rng.
func pickDistinct(rng *rand.Rand, n, limit int) []int {
	return rng.Perm(limit)[:n]
}
