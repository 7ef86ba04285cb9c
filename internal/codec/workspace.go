package codec

import (
	"fmt"
	"slices"

	"tornado/internal/decode"
)

// Encoder is a reusable encoding workspace. Full data blocks are read where
// they lie in the payload; one flat arena, carved once, holds the rest of a
// stripe — a partial last data block, the zero padding after it and every
// check block — and is reused for every subsequent stripe. The streaming data
// path (archive.PutStream) keeps one Encoder per worker, so a multi-gigabyte
// ingest allocates its stripe buffers exactly once: the per-stripe encode is
// allocation-free (TestEncoderZeroAllocs).
//
// An Encoder is NOT safe for concurrent use; each goroutine needs its own.
type Encoder struct {
	c      *Codec
	arena  []byte
	blocks [][]byte
}

// NewEncoder returns a reusable encoder for the codec.
func (c *Codec) NewEncoder() *Encoder {
	e := &Encoder{c: c, arena: make([]byte, c.g.Total*c.blockSize), blocks: make([][]byte, c.g.Total)}
	for i := range e.blocks {
		e.blocks[i] = e.own(i)
	}
	return e
}

// own returns block i's slot of the encoder's arena.
func (e *Encoder) own(i int) []byte {
	bs := e.c.blockSize
	return e.arena[i*bs : (i+1)*bs : (i+1)*bs]
}

// Encode splits payload into data blocks (zero-padding the final block),
// derives every check block, and returns all Total blocks. The returned
// slice is owned by the Encoder and valid only until the next Encode call.
// Each full data block in it aliases payload, which must not change while
// the blocks are in use; every other block lies in the Encoder's arena.
// Callers that retain blocks must copy them (the archive's frame layer
// copies on write, so the data path never does).
func (e *Encoder) Encode(payload []byte) ([][]byte, error) {
	c := e.c
	if len(payload) > c.Capacity() {
		return nil, fmt.Errorf("codec: payload %d bytes exceeds stripe capacity %d", len(payload), c.Capacity())
	}
	bs := c.blockSize
	full := len(payload) / bs
	for i := 0; i < full; i++ {
		e.blocks[i] = payload[i*bs : (i+1)*bs : (i+1)*bs]
	}
	// The arena's data slots held an earlier stripe's partial block: the
	// partial block's tail and every padding block are zeroed on each call.
	for i := full; i < c.g.Data; i++ {
		b, n := e.own(i), 0
		if i == full {
			n = copy(b, payload[i*bs:])
		}
		clear(b[n:])
		e.blocks[i] = b
	}
	return e.blocks, c.EncodeChecks(e.blocks)
}

// Workspace is a reusable repair/decode workspace: a decoder that
// schedules each stripe's rebuilds and an arena the rebuilt blocks are
// carved from, so repairing stripe after stripe of a streaming Get reuses
// the same memory instead of allocating per recovered block. Both are built
// by the first call that rebuilds a block: a workspace that only ever
// decodes healthy stripes holds no memory.
//
// A Workspace is NOT safe for concurrent use; each goroutine needs its own.
type Workspace struct {
	d     *decode.Decoder
	csr   *decode.CSR // the adjacency d peels: its codec's
	arena []byte
	used  int
	fresh bool // every rebuilt block is a fresh allocation (Repair's)
	want  []bool
}

// NewWorkspace returns a repair workspace for the codec.
func (c *Codec) NewWorkspace() *Workspace { return &Workspace{} }

// Want names the blocks DecodeInto is to rebuild besides the data blocks —
// the ones a reader means to write back. want is indexed by node and
// borrowed, not copied, until the next Want; nil (the default) names none.
func (w *Workspace) Want(want []bool) { w.want = want }

func (w *Workspace) wants(v int) bool { return v < len(w.want) && w.want[v] }

// alloc returns the memory for one rebuilt block: a fresh allocation, or a
// block carved from the arena, which is first built for a full stripe's
// worth of recoveries and grown if a pathological call pattern (wrong codec,
// repeated reuse without reset) exhausts it.
func (w *Workspace) alloc(c *Codec) []byte {
	if w.fresh {
		return make([]byte, c.blockSize)
	}
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

// rebuild is the one place the codec fills in blocks, and it decides none
// of them. It validates blocks (nil entries are missing); when a data block
// (or, with all set, any block; else one ws.want names) is missing, it
// erases the nil entries from ws's decoder and executes the decoder's
// schedule — the full fixpoint's with all set, else the steps the data
// blocks and ws.want's depend on — taking each rebuilt block from ws.alloc.
// It reports ErrUnrecoverable if a data block stays missing.
func (c *Codec) rebuild(ws *Workspace, blocks [][]byte, all bool) error {
	if len(blocks) != c.g.Total {
		return fmt.Errorf("codec: got %d blocks, graph has %d nodes", len(blocks), c.g.Total)
	}
	healthy := true
	for v, b := range blocks {
		if b != nil && len(b) != c.blockSize {
			return fmt.Errorf("codec: block %d has %d bytes, want %d", v, len(b), c.blockSize)
		}
		healthy = healthy && (b != nil || v >= c.g.Data && !all && !ws.wants(v))
	}
	if healthy {
		return nil
	}
	if ws.csr != c.csr {
		ws.d, ws.csr = decode.NewDecoder(c.csr), c.csr
	}
	for v, b := range blocks {
		if b == nil {
			ws.d.Erase(v)
		}
	}
	var steps []decode.Step
	if all {
		steps = ws.d.Schedule()
	} else {
		steps = ws.d.ScheduleFor(ws.want)
	}
	ws.d.Reset()
	for _, st := range steps {
		b := ws.alloc(c)
		if st.Node == st.Check {
			clear(b)
		} else {
			copy(b, blocks[st.Check])
		}
		for _, l := range c.csr.LeftNeighbors(st.Check) {
			if l != st.Node {
				xorInto(b, blocks[l])
			}
		}
		blocks[st.Node] = b
	}
	for _, b := range blocks[:c.g.Data] {
		if b == nil {
			return ErrUnrecoverable
		}
	}
	return nil
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

// ResumeRepair takes up the repair where RepairWith stopped, after the caller
// has put blocks from elsewhere (a donor site's copy) into the holes it left:
// the arena is not recycled, so everything the earlier call filled in stays
// valid, and the checks that depend on the new blocks are re-encoded beside
// it. One stripe's RepairWith and ResumeRepair calls together fill at most
// Total blocks, which is what the arena holds.
func (c *Codec) ResumeRepair(ws *Workspace, blocks [][]byte) error {
	return c.rebuild(ws, blocks, true)
}

// DecodeInto reconstructs the stripe payload into dst (which must have
// payloadLen capacity available via append semantics: the payload is
// appended to dst and the extended slice returned). It is Decode for the
// read path, and does only what the payload needs: blocks is filled in with
// the data blocks and the recoverable blocks ws.Want names — the schedule
// pruned to the steps those depend on — and parity nobody asked for is not
// re-encoded: from exactly the data blocks the call is one copy. Filled-in
// blocks alias ws's arena as RepairWith's do.
//
// A data block may already lie at its place in dst's spare capacity — data
// block i at dst[len(dst)+i·BlockSize:] — where the archive reads it: that
// block is not copied. No block may overlap another data block's place.
func (c *Codec) DecodeInto(ws *Workspace, dst []byte, blocks [][]byte, payloadLen int) ([]byte, error) {
	ws.reset()
	return c.decode(ws, dst, blocks, payloadLen, false)
}

// decode rebuilds blocks (to the full fixpoint when all is set) and appends
// the payload's payloadLen bytes to dst, growing it at most once.
func (c *Codec) decode(ws *Workspace, dst []byte, blocks [][]byte, payloadLen int, all bool) ([]byte, error) {
	if payloadLen < 0 || payloadLen > c.Capacity() {
		return nil, fmt.Errorf("codec: payload length %d out of range", payloadLen)
	}
	if err := c.rebuild(ws, blocks, all); err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, payloadLen)
	for i := 0; i < c.g.Data && i*c.blockSize < payloadLen; i++ {
		n := min(c.blockSize, payloadLen-i*c.blockSize)
		if at := dst[len(dst) : len(dst)+n]; &at[0] == &blocks[i][0] {
			dst = dst[:len(dst)+n] // read in place
			continue
		}
		dst = append(dst, blocks[i][:n]...)
	}
	return dst, nil
}
