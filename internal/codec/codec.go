// Package codec carries real data through a Tornado graph: data blocks are
// XORed into check blocks exactly as the graph edges describe (paper §2),
// and lost blocks are reconstructed with the peeling rules operating on the
// actual bytes. The structural simulator (internal/decode) answers "is this
// erasure pattern recoverable?"; this package performs the recovery.
package codec

import (
	"errors"
	"fmt"

	"tornado/internal/graph"
)

// ErrUnrecoverable is returned when the surviving blocks cannot reconstruct
// every data block.
var ErrUnrecoverable = errors.New("codec: data blocks unrecoverable from surviving blocks")

// Codec encodes and decodes fixed-size blocks against a graph. It is
// stateless apart from the graph and safe for concurrent use.
type Codec struct {
	g         *graph.Graph
	blockSize int
}

// New returns a Codec for g with the given block size in bytes.
func New(g *graph.Graph, blockSize int) (*Codec, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("codec: block size %d must be positive", blockSize)
	}
	return &Codec{g: g, blockSize: blockSize}, nil
}

// Graph returns the codec's graph.
func (c *Codec) Graph() *graph.Graph { return c.g }

// BlockSize returns the codec's block size.
func (c *Codec) BlockSize() int { return c.blockSize }

// Capacity returns the maximum payload bytes one stripe can carry.
func (c *Codec) Capacity() int { return c.g.Data * c.blockSize }

// Encode splits payload into data blocks (zero-padding the final block) and
// derives every check block, returning all Total blocks. The payload must
// fit in Capacity bytes; callers stripe larger objects.
func (c *Codec) Encode(payload []byte) ([][]byte, error) {
	if len(payload) > c.Capacity() {
		return nil, fmt.Errorf("codec: payload %d bytes exceeds stripe capacity %d", len(payload), c.Capacity())
	}
	blocks := make([][]byte, c.g.Total)
	for i := 0; i < c.g.Data; i++ {
		b := make([]byte, c.blockSize)
		lo := i * c.blockSize
		if lo < len(payload) {
			copy(b, payload[lo:])
		}
		blocks[i] = b
	}
	if err := c.EncodeChecks(blocks); err != nil {
		return nil, err
	}
	return blocks, nil
}

// EncodeChecks fills blocks[Data:] with the XOR parity prescribed by the
// graph. blocks[0:Data] must already hold the data blocks. Levels are
// computed in order, so cascade stages see their left blocks ready.
func (c *Codec) EncodeChecks(blocks [][]byte) error {
	if len(blocks) != c.g.Total {
		return fmt.Errorf("codec: got %d blocks, graph has %d nodes", len(blocks), c.g.Total)
	}
	for i := 0; i < c.g.Data; i++ {
		if len(blocks[i]) != c.blockSize {
			return fmt.Errorf("codec: data block %d has %d bytes, want %d", i, len(blocks[i]), c.blockSize)
		}
	}
	for r := c.g.Data; r < c.g.Total; r++ {
		b := blocks[r]
		if len(b) != c.blockSize {
			b = make([]byte, c.blockSize)
		} else {
			clear(b)
		}
		for _, l := range c.g.LeftNeighbors(r) {
			xorInto(b, blocks[l])
		}
		blocks[r] = b
	}
	return nil
}

// Decode reconstructs the original payload of length payloadLen from a
// partial block set (nil entries are missing). The input slice is repaired
// in place: every recoverable block is filled in.
func (c *Codec) Decode(blocks [][]byte, payloadLen int) ([]byte, error) {
	if payloadLen < 0 || payloadLen > c.Capacity() {
		return nil, fmt.Errorf("codec: payload length %d out of range", payloadLen)
	}
	if err := c.Repair(blocks); err != nil {
		return nil, err
	}
	out := make([]byte, payloadLen)
	for i := 0; i < c.g.Data && i*c.blockSize < payloadLen; i++ {
		copy(out[i*c.blockSize:], blocks[i])
	}
	return out, nil
}

// checkBlocks validates a partial block set (nil entries are missing).
func (c *Codec) checkBlocks(blocks [][]byte) error {
	if len(blocks) != c.g.Total {
		return fmt.Errorf("codec: got %d blocks, graph has %d nodes", len(blocks), c.g.Total)
	}
	for i, b := range blocks {
		if b != nil && len(b) != c.blockSize {
			return fmt.Errorf("codec: block %d has %d bytes, want %d", i, len(b), c.blockSize)
		}
	}
	return nil
}

// Repair runs data-carrying peeling over blocks (nil entries are missing),
// reconstructing every block it can reach. It returns ErrUnrecoverable if
// any data block remains missing; check blocks may legitimately stay nil.
//
// Every block it fills in is a fresh allocation the caller owns outright,
// which is what the cross-site exchanges (fedstore, steward: their block
// arrays outlive the call and are shared between sites) and Decode want, and
// what makes it the plain oracle the tests hold RepairWith and DecodeInto
// against. The archive's stripe paths — Get, scrub, site repair — go through
// a pooled Workspace (RepairWith, ResumeRepair, DecodeInto) and never call it.
func (c *Codec) Repair(blocks [][]byte) error {
	if err := c.checkBlocks(blocks); err != nil {
		return err
	}
	scratch := make([]byte, c.blockSize)
	for changed := true; changed; {
		changed = false
		for r := c.g.Data; r < c.g.Total; r++ {
			lefts := c.g.LeftNeighbors(r)
			missing := -1
			nMissing := 0
			for _, l := range lefts {
				if blocks[l] == nil {
					nMissing++
					missing = int(l)
					if nMissing > 1 {
						break
					}
				}
			}
			switch {
			case blocks[r] != nil && nMissing == 1:
				// Recover the single missing left: XOR of the check and
				// the other lefts.
				copy(scratch, blocks[r])
				for _, l := range lefts {
					if int(l) != missing {
						xorInto(scratch, blocks[l])
					}
				}
				blocks[missing] = append([]byte(nil), scratch...)
				changed = true
			case blocks[r] == nil && nMissing == 0:
				// Recompute the check from its complete left set.
				b := make([]byte, c.blockSize)
				for _, l := range lefts {
					xorInto(b, blocks[l])
				}
				blocks[r] = b
				changed = true
			}
		}
	}
	for i := 0; i < c.g.Data; i++ {
		if blocks[i] == nil {
			return ErrUnrecoverable
		}
	}
	return nil
}
