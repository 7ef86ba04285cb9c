// Package codec carries real data through a Tornado graph: data blocks are
// XORed into check blocks exactly as the graph edges describe (paper §2),
// and lost blocks are reconstructed on the actual bytes. Which blocks are
// rebuilt, and in what order, is internal/decode's peel: its Decoder emits
// the schedule, and this package only executes each step's XORs.
package codec

import (
	"crypto/subtle"
	"errors"
	"fmt"

	"tornado/internal/decode"
	"tornado/internal/graph"
)

// ErrUnrecoverable is returned when the surviving blocks cannot reconstruct
// every data block.
var ErrUnrecoverable = errors.New("codec: data blocks unrecoverable from surviving blocks")

// Codec encodes and decodes fixed-size blocks against a graph. It is
// stateless apart from the graph and safe for concurrent use.
type Codec struct {
	g         *graph.Graph
	csr       *decode.CSR // read-only adjacency every decoder of the codec shares
	blockSize int
}

// New returns a Codec for g with the given block size in bytes. g must not
// change afterwards.
func New(g *graph.Graph, blockSize int) (*Codec, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("codec: block size %d must be positive", blockSize)
	}
	return &Codec{g: g, csr: decode.NewCSR(g), blockSize: blockSize}, nil
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
		if len(blocks[r]) != c.blockSize {
			blocks[r] = make([]byte, c.blockSize)
		}
		encodeCheck(blocks[r], blocks, c.g.LeftNeighbors(r))
	}
	return nil
}

// encodeCheck overwrites the check block b with the XOR of the blocks lefts
// names. The first two are XORed straight into b, so b is written once
// rather than cleared and then XORed into twice; a check of degree 1 is a
// copy, one of degree 0 all zeros.
func encodeCheck(b []byte, blocks [][]byte, lefts []int32) {
	switch len(lefts) {
	case 0:
		clear(b)
	case 1:
		copy(b, blocks[lefts[0]])
	default:
		subtle.XORBytes(b, blocks[lefts[0]], blocks[lefts[1]])
		for _, l := range lefts[2:] {
			xorInto(b, blocks[l])
		}
	}
}

// Decode reconstructs the original payload of length payloadLen from a
// partial block set (nil entries are missing). The input slice is repaired
// in place: every recoverable block is filled in.
func (c *Codec) Decode(blocks [][]byte, payloadLen int) ([]byte, error) {
	return c.decode(&Workspace{fresh: true}, nil, blocks, payloadLen, true)
}

// Repair executes decode's full schedule over blocks (nil entries are
// missing), rebuilding every block peeling can reach. It returns
// ErrUnrecoverable if any data block remains missing.
//
// Every block it fills in is a fresh allocation the caller owns outright,
// which is what Decode and the federated store's joint decode want: that
// one production caller repairs a stripe over a federation's union graph
// and writes the rebuilt data blocks home to several sites after the call.
// The archive's stripe paths — Get, scrub, site repair — go through a pooled
// Workspace (RepairWith, ResumeRepair, DecodeInto) and never call it.
func (c *Codec) Repair(blocks [][]byte) error {
	return c.rebuild(&Workspace{fresh: true}, blocks, true)
}
