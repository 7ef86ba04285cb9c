package codec

import "fmt"

// Encoder is a reusable encoding workspace: one flat arena holding all
// Total blocks of a stripe, carved once and reused for every subsequent
// stripe. The streaming data path (archive.PutStream) keeps one Encoder per
// worker so a multi-gigabyte ingest allocates its stripe buffers exactly
// once — the per-stripe encode is allocation-free (the CI bench gate
// enforces 0 allocs/op on this loop).
//
// An Encoder is NOT safe for concurrent use; each goroutine needs its own.
type Encoder struct {
	c      *Codec
	arena  []byte
	blocks [][]byte
}

// NewEncoder returns a reusable encoder for the codec.
func (c *Codec) NewEncoder() *Encoder {
	arena := make([]byte, c.g.Total*c.blockSize)
	blocks := make([][]byte, c.g.Total)
	for i := range blocks {
		blocks[i] = arena[i*c.blockSize : (i+1)*c.blockSize : (i+1)*c.blockSize]
	}
	return &Encoder{c: c, arena: arena, blocks: blocks}
}

// Encode splits payload into data blocks (zero-padding the final block),
// derives every check block, and returns all Total blocks. The returned
// slice and every block in it are owned by the Encoder and valid only
// until the next Encode call; callers that retain blocks must copy them
// (the archive's frame layer copies on write, so the data path never
// does).
func (e *Encoder) Encode(payload []byte) ([][]byte, error) {
	c := e.c
	if len(payload) > c.Capacity() {
		return nil, fmt.Errorf("codec: payload %d bytes exceeds stripe capacity %d", len(payload), c.Capacity())
	}
	// Refill the data region: payload bytes then zero padding.
	dataBytes := c.g.Data * c.blockSize
	n := copy(e.arena[:dataBytes], payload)
	clear(e.arena[n:dataBytes])
	for r := c.g.Data; r < c.g.Total; r++ {
		b := e.blocks[r]
		clear(b)
		for _, l := range c.g.LeftNeighbors(r) {
			xorInto(b, e.blocks[l])
		}
	}
	return e.blocks, nil
}

// Workspace is a reusable repair/decode workspace: an arena that recovered
// blocks are carved from, so repairing stripe after stripe of a streaming
// Get reuses the same memory instead of allocating per recovered block. The
// arena is built by the first call that rebuilds a block: a workspace that
// only ever decodes healthy stripes holds no memory.
//
// A Workspace is NOT safe for concurrent use; each goroutine needs its own.
type Workspace struct {
	arena []byte
	used  int
	want  []bool
}

// NewWorkspace returns a repair workspace for the codec.
func (c *Codec) NewWorkspace() *Workspace { return &Workspace{} }

// Want names the blocks DecodeInto is to rebuild besides the data blocks —
// the ones a reader means to write back. want is indexed by node and
// borrowed, not copied, until the next Want; nil (the default) names none.
func (w *Workspace) Want(want []bool) { w.want = want }

// alloc carves one block from the arena, which is first built for a full
// stripe's worth of recoveries and grown if a pathological call pattern
// (wrong codec, repeated reuse without reset) exhausts it.
func (w *Workspace) alloc(c *Codec) []byte {
	if w.used+c.blockSize > len(w.arena) {
		w.arena = make([]byte, max(c.g.Total*c.blockSize, len(w.arena)+c.blockSize*8))
		w.used = 0
	}
	b := w.arena[w.used : w.used+c.blockSize : w.used+c.blockSize]
	w.used += c.blockSize
	return b
}

// reset recycles the arena for the next stripe. Blocks handed out earlier
// must no longer be referenced by the caller.
func (w *Workspace) reset() { w.used = 0 }

// peel runs the peeling rules over blocks to their fixpoint, carving every
// block it fills in from ws. Rule 1 — a present check with one missing left
// rebuilds that left — always runs. Rule 2 — a missing check is re-encoded
// from its complete lefts — runs for every check when all is set, else only
// for those ws.want names.
func (c *Codec) peel(ws *Workspace, blocks [][]byte, all bool) {
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
				b := ws.alloc(c)
				copy(b, blocks[r])
				for _, l := range lefts {
					if int(l) != missing {
						xorInto(b, blocks[l])
					}
				}
				blocks[missing] = b
				changed = true
			case blocks[r] == nil && nMissing == 0 && (all || ws.wants(r)):
				b := ws.alloc(c)
				clear(b)
				for _, l := range lefts {
					xorInto(b, blocks[l])
				}
				blocks[r] = b
				changed = true
			}
		}
	}
}

func (w *Workspace) wants(v int) bool { return v < len(w.want) && w.want[v] }

// reached reports whether every data block, and every block ws.want names
// when wanted is set, is present.
func (c *Codec) reached(ws *Workspace, blocks [][]byte, wanted bool) bool {
	for v, b := range blocks {
		if b == nil && (v < c.g.Data || (wanted && ws.wants(v))) {
			return false
		}
	}
	return true
}

// RepairWith is Repair carving recovered blocks from ws: it fills in every
// block peeling can reach, whatever ws.Want names. Blocks filled into the
// input slice alias ws's arena and are valid only until the next
// RepairWith/DecodeInto call on the same workspace; the archive's write paths
// copy before the backend sees them.
func (c *Codec) RepairWith(ws *Workspace, blocks [][]byte) error {
	ws.reset()
	return c.ResumeRepair(ws, blocks)
}

// ResumeRepair takes up the peel where RepairWith stopped, after the caller
// has put blocks from elsewhere (a donor site's copy) into the holes it left:
// the arena is not recycled, so everything the earlier peel filled in stays
// valid, and the checks that depend on the new blocks are re-encoded beside
// it. One stripe's RepairWith and ResumeRepair calls together fill at most
// Total blocks, which is what the arena holds.
func (c *Codec) ResumeRepair(ws *Workspace, blocks [][]byte) error {
	if err := c.checkBlocks(blocks); err != nil {
		return err
	}
	c.peel(ws, blocks, true)
	if !c.reached(ws, blocks, false) {
		return ErrUnrecoverable
	}
	return nil
}

// DecodeInto reconstructs the stripe payload into dst (which must have
// payloadLen capacity available via append semantics: the payload is
// appended to dst and the extended slice returned). It is Decode for the
// read path, and does only what the payload needs: blocks is filled in with
// the data blocks and the blocks ws.Want names, and parity nobody asked for
// is not re-encoded — from exactly the data blocks the call is one copy.
// Only when that targeted peel leaves a data or wanted block missing does
// it peel to the full closure, as RepairWith does, since a re-encoded check
// may be what unlocks the block. Filled-in blocks alias ws's arena as
// RepairWith's do.
func (c *Codec) DecodeInto(ws *Workspace, dst []byte, blocks [][]byte, payloadLen int) ([]byte, error) {
	if payloadLen < 0 || payloadLen > c.Capacity() {
		return nil, fmt.Errorf("codec: payload length %d out of range", payloadLen)
	}
	if err := c.checkBlocks(blocks); err != nil {
		return nil, err
	}
	ws.reset()
	c.peel(ws, blocks, false)
	if !c.reached(ws, blocks, true) {
		c.peel(ws, blocks, true) // the arena is not recycled: blocks filled in so far stay
		if !c.reached(ws, blocks, false) {
			return nil, ErrUnrecoverable
		}
	}
	for i := 0; i < c.g.Data && i*c.blockSize < payloadLen; i++ {
		end := min((i+1)*c.blockSize, payloadLen)
		dst = append(dst, blocks[i][:end-i*c.blockSize]...)
	}
	return dst, nil
}
