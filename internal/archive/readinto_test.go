package archive

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"tornado/internal/decode"
	"tornado/internal/device"
	"tornado/internal/repairbw"
)

// arenaWatch makes every scratch the store builds from here on come with its
// frame arena already allocated, and keeps them all, so a test can ask
// whether a slice points into any arena and overwrite every arena at once.
// (An arena is allocated once per scratch, so its address is stable; the free
// list may drop scratches, which only means more of them get built.)
type arenaWatch struct {
	mu     sync.Mutex
	arenas [][]byte
}

func watchArenas(s *Store) *arenaWatch {
	w := &arenaWatch{}
	s.scratches.New = func() any {
		sc := s.newScratch()
		sc.frame(s, 0)
		w.mu.Lock()
		w.arenas = append(w.arenas, sc.frames)
		w.mu.Unlock()
		return sc
	}
	return w
}

// holds reports whether p shares memory with any frame arena.
func (w *arenaWatch) holds(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, a := range w.arenas {
		if alo := uintptr(unsafe.Pointer(unsafe.SliceData(a))); lo < alo+uintptr(len(a)) && alo < lo+uintptr(len(p)) {
			return true
		}
	}
	return false
}

// scribble overwrites every arena. Only for moments when no stripe is in
// flight: a stripe mid-read owns its scratch's arena.
func (w *arenaWatch) scribble() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, a := range w.arenas {
		for i := range a {
			a[i] ^= 0xA5
		}
	}
}

// TestReadStripePayloadOutlivesArena: frames land in the scratch's arena, but
// the payload ReadStripe hands out does not point there — it is intact after
// the same scratch has served other stripes and after the arena itself has
// been overwritten, and a stale arena does not leak into the next read.
func TestReadStripePayloadOutlivesArena(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	arenas := watchArenas(s)
	stripeCap := s.Layout().StripeCapacity
	data := payload(3*stripeCap, 7)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	held, _, err := s.ReadStripe(ctx, "obj", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(arenas.arenas) == 0 {
		t.Fatal("ReadStripe built no frame arena: the reads did not go through the scratch")
	}
	if arenas.holds(held) {
		t.Fatal("ReadStripe returned a payload inside a frame arena")
	}
	for st := 1; st < 3; st++ {
		if _, _, err := s.ReadStripe(ctx, "obj", st); err != nil {
			t.Fatal(err)
		}
	}
	arenas.scribble()
	if !bytes.Equal(held, data[:stripeCap]) {
		t.Error("a held payload changed when its scratch's arena was reused and overwritten")
	}
	for st := 0; st < 3; st++ {
		got, _, err := s.ReadStripe(ctx, "obj", st)
		if err != nil || !bytes.Equal(got, data[st*stripeCap:(st+1)*stripeCap]) {
			t.Errorf("stripe %d after the arenas were overwritten: err=%v", st, err)
		}
	}
}

// arenaCheckWriter is GetStream's sink: each chunk must be the next bytes of
// want and must not point into a frame arena. With scribble set it overwrites
// every arena while it holds the chunk — safe only at width 1, where no other
// stripe is in flight — and checks the chunk again.
type arenaCheckWriter struct {
	t        *testing.T
	arenas   *arenaWatch
	want     []byte
	off      int
	scribble bool
}

func (w *arenaCheckWriter) Write(p []byte) (int, error) {
	if w.arenas.holds(p) {
		w.t.Errorf("chunk at offset %d points into a frame arena", w.off)
	}
	if w.scribble {
		w.arenas.scribble()
	}
	if w.off+len(p) > len(w.want) || !bytes.Equal(p, w.want[w.off:w.off+len(p)]) {
		w.t.Errorf("chunk at offset %d is not the object's bytes", w.off)
	}
	w.off += len(p)
	return len(p), nil
}

// TestGetStreamChunksOutliveArena: every chunk GetStream emits is exact and
// outside the frame arenas — at width 1, where the arenas are overwritten
// under each chunk while the writer holds it, and at the default width with
// the head stripe stalled, so later stripes finish, wait for their turn with
// their frames still in their arenas, and hand their scratches to the stripes
// behind them while earlier chunks are being written. Run under -race, a
// chunk that aliased an arena would be a reported race with the next
// stripe's reads.
func TestGetStreamChunksOutliveArena(t *testing.T) {
	width := applyStreamOptions(nil).parallelism
	base := testStore(t, Config{BlockSize: 64})
	data := payload(3*max(width, 2)*base.codec.Capacity()+5, 9)
	ctx := context.Background()

	t.Run("width 1", func(t *testing.T) {
		s := testStore(t, Config{BlockSize: 64})
		arenas := watchArenas(s)
		if err := s.PutCtx(ctx, "obj", data); err != nil {
			t.Fatal(err)
		}
		w := &arenaCheckWriter{t: t, arenas: arenas, want: data, scribble: true}
		if n, _, err := s.GetStream(ctx, "obj", w, WithParallelism(1)); err != nil || n != len(data) {
			t.Fatalf("GetStream: %d bytes, %v", n, err)
		}
	})
	t.Run("default width, stalled head", func(t *testing.T) {
		if width < 2 {
			t.Skip("one CPU: the default width is the inline loop")
		}
		stall := &headStallBackend{Backend: base.backend, width: width, released: make(chan struct{})}
		s, err := NewWithBackend(base.g, stall, Config{BlockSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		arenas := watchArenas(s)
		if err := s.PutCtx(ctx, "obj", data); err != nil {
			t.Fatal(err)
		}
		w := &arenaCheckWriter{t: t, arenas: arenas, want: data}
		if n, _, err := s.GetStream(ctx, "obj", w); err != nil || n != len(data) {
			t.Fatalf("GetStream: %d bytes, %v", n, err)
		}
		if len(arenas.arenas) < width {
			t.Errorf("%d frame arenas for %d stripes in flight", len(arenas.arenas), width)
		}
		arenas.scribble()
		var again bytes.Buffer
		if _, _, err := s.GetStream(ctx, "obj", &again); err != nil || !bytes.Equal(again.Bytes(), data) {
			t.Errorf("second GetStream over overwritten arenas: %v", err)
		}
	})
}

// TestRetryOnArenaFrames: the plan meets a frame it cannot read and nothing
// else can rebuild. Three data devices are gone, and so are the parent
// checks of node 0 and theirs, so the plan leans on checks; node 0 then
// errors past the retry budget. The re-plan around it finds no way (the
// decoder agrees), so node 0 gets its price back, the stripe is re-planned
// and node 0 is asked once more, into the same arena as the frames the plan
// read. The one decode must come out bit-exact; the next stripe, on the same
// scratch with the first one's frames still lying in the arena, too.
func TestRetryOnArenaFrames(t *testing.T) {
	g := benchStore(t).Graph()
	failed := append([]int{5, 17, 33}, checksAbove(g, 0)...)
	if d := decode.New(g); !d.Recoverable(failed) || d.Recoverable(append(slices.Clone(failed), 0)) {
		t.Fatalf("failing %v must leave node 0 the one block the stripe cannot do without", failed)
	}
	devs := device.NewArray(g.Total)
	fb := &flakyBackend{Backend: NewArrayBackend(devs), node: 0}
	s, err := NewWithBackend(g, fb, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	arenas := watchArenas(s)
	stripeCap := s.Layout().StripeCapacity
	data := payload(2*stripeCap, 3)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	for _, node := range failed {
		devs[node].Fail()
	}
	arenas.scribble() // stale bytes in every slot the stripe does not read

	fb.failures = transientRetries + 1 // the plan's read of node 0, not the retry's
	got, stats, err := s.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatalf("Get: %v (stats %+v)", err, stats)
	}
	if fb.seen != fb.failures {
		t.Fatal("node 0 never failed; it was not in the retrieval plan")
	}
	if !bytes.Equal(got, data) {
		t.Error("retry over arena-backed frames returned wrong bytes")
	}
	// Both stripes planned around the dead devices alike and read no more
	// than that plan: stripe 0's node 0 on the retry, stripe 1's at once.
	_, plan, err := s.ReadStripe(ctx, "obj", 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRead != 2*plan.BlocksRead {
		t.Errorf("BlocksRead = %d, want %d (two stripes of a %d-block plan)", stats.BlocksRead, 2*plan.BlocksRead, plan.BlocksRead)
	}
	if stats.BlocksRepaired != 6 {
		t.Errorf("BlocksRepaired = %d, want 6 (three dead data devices, two stripes)", stats.BlocksRepaired)
	}
}

// tamperBackend damages what one read of one block returns, in flight (the
// stored frame stays intact): "flip" flips the first byte of the frame — its
// checksum header — "short" drops the frame's last byte, and "long" appends
// eight bytes, which a frame that fills its slot cannot take in place.
type tamperBackend struct {
	Backend
	stripe, node int
	mode         string
}

func (b *tamperBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	framed, err := ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
	if err != nil || !bytes.Equal(key, blockKey("obj", b.stripe, b.node)) {
		return framed, err
	}
	switch b.mode {
	case "flip":
		framed[0] ^= 0x01
	case "short":
		framed = framed[:len(framed)-1]
	case "long":
		framed = append(framed, 1, 2, 3, 4, 5, 6, 7, 8)
	}
	return framed, nil
}

// TestReadStripeIntoLandsInPlace: ReadStripeInto reads most data blocks'
// frames straight into dst, each frame's checksum header over the last bytes
// of the block before. Into a dst full of garbage, between sentinel bytes,
// every read must return dst holding the stripe's exact bytes, leave the
// sentinels alone and report the stats a read through the scratch's arena
// reports — with the frame of the first block, of the second (whose header
// lies over the first's tail), of the last full block or of a partial last
// block rotten, cut short by a byte or grown past its slot.
func TestReadStripeIntoLandsInPlace(t *testing.T) {
	g := testStore(t, Config{BlockSize: 64}).Graph()
	stripeCap := g.Data * 64
	data := payload(stripeCap+20*64+10, 52) // stripe 1: 20 full blocks, then 10 bytes
	last := g.Data - 1                      // stripe 0's last full block
	const frame = 64 + frameOverhead
	// One of a stripe's live data blocks comes back damaged as a frame of n
	// bytes: the read re-plans around it, reads the one check the new plan
	// adds, rebuilds the block from it and writes it back. The repair bill is what was
	// read beyond the live blocks' frames, and the write.
	damaged := func(live, n int) GetStats {
		reads := live + 1
		return GetStats{DevicesAccessed: reads, BlocksRead: reads, BlocksRepaired: 1, CorruptBlocks: 1, ReadRepairs: 1,
			Repair: repairbw.CostReport{BlocksRead: reads - live, BytesRead: int64((reads-1-live)*frame + n),
				BlocksWritten: 1, BytesWritten: frame}}
	}
	cases := []struct {
		name   string
		stripe int
		node   int // the tampered block; -1 for none
		mode   string
		stats  GetStats
	}{
		{"healthy", 0, -1, "", GetStats{DevicesAccessed: g.Data, BlocksRead: g.Data}},
		{"healthy partial", 1, -1, "", GetStats{DevicesAccessed: 21, BlocksRead: 21}},
		{"rotten node 0", 0, 0, "flip", damaged(g.Data, frame)},
		{"rotten node 1", 0, 1, "flip", damaged(g.Data, frame)},
		{"rotten last full block", 0, last, "flip", damaged(g.Data, frame)},
		{"rotten partial block", 1, 20, "flip", damaged(21, frame)},
		{"rotten block before partial", 1, 19, "flip", damaged(21, frame)},
		{"short node 1", 0, 1, "short", damaged(g.Data, frame-1)},
		{"long node 1", 0, 1, "long", damaged(g.Data, frame+8)},
		{"long last full block", 0, last, "long", damaged(g.Data, frame+8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			devs := device.NewArray(g.Total)
			tb := &tamperBackend{Backend: NewArrayBackend(devs), stripe: tc.stripe, node: tc.node, mode: tc.mode}
			s, err := NewWithBackend(g, tb, Config{BlockSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutCtx(ctx, "obj", data); err != nil {
				t.Fatal(err)
			}
			want := data[tc.stripe*stripeCap : min((tc.stripe+1)*stripeCap, len(data))]
			const pad = 16
			buf := bytes.Repeat([]byte{0xEE}, pad+len(want)+pad)
			dst := buf[pad : pad+len(want)]
			copy(dst, payload(len(dst), 99)) // garbage
			got, stats, err := s.ReadStripeInto(ctx, "obj", tc.stripe, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("wrong bytes")
			}
			if len(got) > 0 && &got[0] != &dst[0] {
				t.Error("the payload is not in dst")
			}
			for _, i := range []int{0, pad - 1, pad + len(want), len(buf) - 1} {
				if buf[i] != 0xEE {
					t.Errorf("sentinel byte %d overwritten", i)
				}
			}
			if stats != tc.stats {
				t.Errorf("stats %+v, want %+v", stats, tc.stats)
			}
		})
	}
}
