package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
)

// streamWidths are the pipeline widths the stream contract is checked at:
// the inline loop, the narrowest concurrent pipeline, and a wider one.
var streamWidths = []int{1, 2, 4}

// allowWidth lifts GOMAXPROCS for the test so WithParallelism(n) is not
// clamped below n on a small host.
func allowWidth(t *testing.T, n int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestStreamRoundTrip pushes objects through PutStream and GetStream at
// every width: empty, sub-stripe, exactly on a stripe boundary, mid-block
// and many-stripe payloads. Each must be recorded with the right size and
// stripe count, read back bit-exact with aggregated stats — one read per
// live data block of every stripe, none of the zero padding — and read back
// through the buffered Get too.
func TestStreamRoundTrip(t *testing.T) {
	allowWidth(t, 4)
	s := testStore(t, Config{BlockSize: 64})
	cap := s.codec.Capacity()
	sizes := []int{0, 1, cap - 1, cap, cap + 1, 2 * cap, 3*cap + 17, 5 * cap}
	for _, par := range streamWidths {
		for i, n := range sizes {
			name := fmt.Sprintf("obj-%d-%d", par, i)
			data := payload(n, uint64(n)+uint64(par))
			wrote, err := s.PutStream(context.Background(), name, bytes.NewReader(data), WithParallelism(par))
			if err != nil {
				t.Fatalf("PutStream(par=%d, n=%d): %v", par, n, err)
			}
			if wrote != n {
				t.Fatalf("PutStream wrote %d, want %d", wrote, n)
			}
			wantStripes := max(1, (n+cap-1)/cap)
			if obj, err := s.Stat(name); err != nil || obj.Size != n || obj.Stripes != wantStripes {
				t.Fatalf("Stat(par=%d, n=%d) = %+v, %v; want %d stripes", par, n, obj, err, wantStripes)
			}
			var buf bytes.Buffer
			read, stats, err := s.GetStream(context.Background(), name, &buf, WithParallelism(par))
			if err != nil {
				t.Fatalf("GetStream(par=%d, n=%d): %v", par, n, err)
			}
			if read != n || !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("round trip mismatch par=%d n=%d (read %d)", par, n, read)
			}
			live := func(st int) int { return (min(n-st*cap, cap) + 63) / 64 }
			want := GetStats{DevicesAccessed: live(0)}
			for st := range wantStripes {
				want.BlocksRead += live(st)
			}
			if stats != want {
				t.Errorf("stats over %d stripes (par=%d, n=%d): %+v, want %+v", wantStripes, par, n, stats, want)
			}
			// Cross-API: the streamed object must read back through Get too.
			got, _, err := s.GetCtx(ctx, name)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Get after PutStream: %v", err)
			}
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestStreamContract checks, at every width, what the stream pair promises
// beyond the round trip: a failing source aborts cleanly and leaves the name
// reusable, duplicates and unknown names are refused, reads reconstruct
// around failed devices, and a failing sink surfaces its error.
func TestStreamContract(t *testing.T) {
	allowWidth(t, 4)
	ctx := context.Background()
	for _, par := range streamWidths {
		t.Run(fmt.Sprintf("width=%d", par), func(t *testing.T) {
			s := testStore(t, Config{BlockSize: 32}) // capacity 1536/stripe
			width := WithParallelism(par)

			linkDropped := errors.New("link dropped")
			r := io.MultiReader(bytes.NewReader(payload(5000, 33)), iotest.ErrReader(linkDropped))
			if _, err := s.PutStream(ctx, "obj", r, width); !errors.Is(err, linkDropped) {
				t.Fatalf("source error = %v, want it to wrap %v", err, linkDropped)
			}
			if _, err := s.Stat("obj"); !errors.Is(err, ErrNotFound) {
				t.Errorf("partial object survives: %v", err)
			}
			for _, dev := range s.Devices() {
				if dev.Len() != 0 {
					t.Fatalf("device %d keeps %d blocks of the aborted object", dev.ID(), dev.Len())
				}
			}

			data := payload(9000, 34) // 6 stripes
			if _, err := s.PutStream(ctx, "obj", bytes.NewReader(data), width); err != nil {
				t.Fatalf("name not reusable after an aborted put: %v", err)
			}
			if _, err := s.PutStream(ctx, "obj", strings.NewReader("y"), width); !errors.Is(err, ErrExists) {
				t.Errorf("duplicate = %v", err)
			}
			var out bytes.Buffer
			if _, _, err := s.GetStream(ctx, "nope", &out, width); !errors.Is(err, ErrNotFound) {
				t.Errorf("missing = %v", err)
			}

			s.Devices()[1].Fail()
			s.Devices()[3].Fail()
			s.Devices()[70].Fail()
			n, stats, err := s.GetStream(ctx, "obj", &out, width)
			if err != nil || n != len(data) || !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("reconstruction around failed devices: %d bytes, %v", n, err)
			}
			if stats.BlocksRepaired == 0 {
				t.Errorf("degraded read repaired nothing: %+v", stats)
			}

			n, _, err = s.GetStream(ctx, "obj", failingWriter{}, width)
			if err == nil || !strings.Contains(err.Error(), "disk full") || n != 0 {
				t.Errorf("sink error: %d bytes, %v", n, err)
			}
		})
	}
}

// storedBlocks reads every block of name straight off the devices.
func storedBlocks(t *testing.T, s *Store, name string) [][]byte {
	t.Helper()
	obj, err := s.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for st := 0; st < obj.Stripes; st++ {
		for node, dev := range s.Devices() {
			b, err := dev.Read(blockKey(name, st, node))
			if err != nil {
				t.Fatalf("stripe %d node %d: %v", st, node, err)
			}
			out = append(out, b)
		}
	}
	return out
}

// TestWidthChangesNothingStored: the bytes on the devices and the stats of
// reading them back do not depend on the pipeline width or on which Put
// form wrote the object — on a healthy array, and with devices failed and a
// frame rotted.
func TestWidthChangesNothingStored(t *testing.T) {
	allowWidth(t, 8)
	ctx := context.Background()
	cfg := Config{BlockSize: 32}
	data := payload(6000, 42) // 4 stripes
	damage := func(s *Store) {
		for _, node := range []int{1, 3, 70} {
			s.Devices()[node].Fail()
		}
		if err := s.Devices()[5].Write(blockKey("obj", 1, 5), []byte("bit rot")); err != nil {
			t.Fatal(err)
		}
	}
	ref := testStore(t, cfg)
	if err := ref.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	want := storedBlocks(t, ref, "obj")
	read := func(s *Store, par int) GetStats {
		var out bytes.Buffer
		_, stats, err := s.GetStream(ctx, "obj", &out, WithParallelism(par))
		if err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("GetStream(par=%d): %v", par, err)
		}
		return stats
	}
	_, healthy, err := ref.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	damage(ref)
	_, degraded, err := ref.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if degraded.BlocksRepaired == 0 || degraded.CorruptBlocks != 1 || degraded.ReadRepairs != 1 || degraded.Repair.BytesRead == 0 {
		t.Fatalf("degraded read billed no repair: %+v", degraded)
	}
	for _, par := range []int{1, 2, 4, 8} {
		s := testStore(t, cfg)
		if _, err := s.PutStream(ctx, "obj", bytes.NewReader(data), WithParallelism(par)); err != nil {
			t.Fatal(err)
		}
		got := storedBlocks(t, s, "obj")
		if len(got) != len(want) {
			t.Fatalf("par=%d stored %d blocks, PutCtx stored %d", par, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("par=%d: block %d differs from the one PutCtx stored", par, i)
			}
		}
		if stats := read(s, par); stats != healthy {
			t.Errorf("healthy stats at par=%d: %+v, GetCtx: %+v", par, stats, healthy)
		}
		damage(s)
		if stats := read(s, par); stats != degraded {
			t.Errorf("degraded stats at par=%d: %+v, GetCtx: %+v", par, stats, degraded)
		}
	}
}

// TestParallelMatchesSerialStats: the widest pipeline reads exactly the
// blocks and devices the inline loop does.
func TestParallelMatchesSerialStats(t *testing.T) {
	allowWidth(t, 4)
	ctx := context.Background()
	a := testStore(t, Config{BlockSize: 32})
	b := testStore(t, Config{BlockSize: 32})
	data := payload(6000, 42)
	if _, err := a.PutStream(ctx, "obj", bytes.NewReader(data), WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutStream(ctx, "obj", bytes.NewReader(data), WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
	_, sa, err := a.GetStream(ctx, "obj", io.Discard, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	_, sb, err := b.GetStream(ctx, "obj", io.Discard, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if sa.BlocksRead != sb.BlocksRead || sa.DevicesAccessed != sb.DevicesAccessed {
		t.Errorf("stats diverge: serial %+v vs parallel %+v", sa, sb)
	}
}

// gatedReader serves data but blocks, once `after` bytes are out, until its
// gate closes; it announces the stall on stalled.
type gatedReader struct {
	r       io.Reader
	after   int
	read    int
	stalled chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.read >= g.after {
		g.once.Do(func() { close(g.stalled) })
		<-g.gate
	} else {
		p = p[:min(len(p), g.after-g.read)]
	}
	n, err := g.r.Read(p)
	g.read += n
	return n, err
}

// TestPutInFlightIsInvisible: until a Put commits, its object does not
// exist for anyone but a second Put of the same name. (A PutStream in
// flight used to be served as a valid empty object, and listed with zero
// stripes.)
func TestPutInFlightIsInvisible(t *testing.T) {
	for _, par := range streamWidths {
		s := testStore(t, Config{BlockSize: 64})
		data := payload(4*s.codec.Capacity(), 8)
		r := &gatedReader{r: bytes.NewReader(data), after: s.codec.Capacity(), stalled: make(chan struct{}), gate: make(chan struct{})}
		done := make(chan error, 1)
		go func() {
			_, err := s.PutStream(context.Background(), "obj", r, WithParallelism(par))
			done <- err
		}()
		<-r.stalled // the first stripe is in; the rest is not

		var out bytes.Buffer
		if n, _, err := s.GetStream(context.Background(), "obj", &out); !errors.Is(err, ErrNotFound) {
			t.Errorf("par=%d: GetStream mid-Put = %d bytes, %v; want ErrNotFound", par, n, err)
		}
		if got, _, err := s.GetCtx(ctx, "obj"); !errors.Is(err, ErrNotFound) {
			t.Errorf("par=%d: Get mid-Put = %d bytes, %v; want ErrNotFound", par, len(got), err)
		}
		if _, _, err := s.ReadStripe(context.Background(), "obj", 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("par=%d: ReadStripe mid-Put: %v", par, err)
		}
		if obj, err := s.Stat("obj"); !errors.Is(err, ErrNotFound) {
			t.Errorf("par=%d: Stat mid-Put = %+v, %v; want ErrNotFound", par, obj, err)
		}
		if objs := s.List(); len(objs) != 0 {
			t.Errorf("par=%d: List mid-Put = %+v; want nothing", par, objs)
		}
		if err := s.DeleteCtx(context.Background(), "obj"); !errors.Is(err, ErrNotFound) {
			t.Errorf("par=%d: Delete mid-Put: %v", par, err)
		}
		if err := s.PutCtx(ctx, "obj", []byte("usurper")); !errors.Is(err, ErrExists) {
			t.Errorf("par=%d: second Put of a name mid-Put: %v; want ErrExists", par, err)
		}

		close(r.gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if objs := s.List(); len(objs) != 1 || objs[0].Size != len(data) || objs[0].Stripes != 4 {
			t.Errorf("par=%d: List after commit = %+v", par, objs)
		}
		if got, _, err := s.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
			t.Errorf("par=%d: Get after commit: %v", par, err)
		}
	}
}

// TestPutStreamCancellation: cancelling mid-ingest aborts promptly and
// rolls the partial object back.
func TestPutStreamCancellation(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	cap := s.codec.Capacity()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	data := payload(6*cap, 3)
	// Cancel once the reader has handed out a couple of stripes; the
	// pipeline must notice the context, not the reader, which keeps
	// serving bytes.
	r := &cancelAfterReader{r: bytes.NewReader(data), after: 2 * cap, cancel: cancel}
	_, err := s.PutStream(ctx, "cancelled", r, WithParallelism(2))
	if !errIsCtx(err) {
		t.Fatalf("PutStream under cancellation: %v", err)
	}
	if _, err := s.Stat("cancelled"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancelled PutStream left metadata: %v", err)
	}
}

type cancelAfterReader struct {
	r      io.Reader
	after  int
	read   int
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	if c.read >= c.after {
		c.once.Do(c.cancel)
	}
	return n, err
}

// TestGetMidObjectCancellation: a retrieval cancelled between stripes
// returns ctx.Err() promptly instead of finishing the remaining stripes —
// on the sequential path, the parallel path, and the buffered GetCtx.
func TestGetMidObjectCancellation(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	cap := s.codec.Capacity()
	data := payload(8*cap, 4)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{after: 2 * cap, cancel: cancel}
	n, _, err := s.GetStream(ctx, "obj", w, WithParallelism(1))
	if !errIsCtx(err) {
		t.Fatalf("GetStream under mid-object cancellation: %v", err)
	}
	if n >= len(data) {
		t.Errorf("cancelled Get still delivered all %d bytes", n)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w2 := &cancelAfterWriter{after: 2 * cap, cancel: cancel2}
	if _, _, err := s.GetStream(ctx2, "obj", w2, WithParallelism(3)); !errIsCtx(err) {
		t.Fatalf("parallel GetStream under cancellation: %v", err)
	}

	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	if _, _, err := s.GetCtx(ctx3, "obj"); !errIsCtx(err) {
		t.Fatalf("GetCtx with cancelled context: %v", err)
	}
}

// headStallBackend parks every read of stripe 0 until the last stripe of the
// first window (stripe width-1) is being read, and notes any read that runs
// a full width ahead of the parked head.
type headStallBackend struct {
	Backend
	width    int
	released chan struct{}
	once     sync.Once
	ahead    atomic.Int64
}

func (b *headStallBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	st, _ := strconv.Atoi(strings.Split(string(key), "/")[1]) // "obj/<stripe>/<node>"
	switch {
	case st == 0:
		<-b.released
	case st == b.width-1:
		b.once.Do(func() { close(b.released) })
	case st >= b.width:
		select {
		case <-b.released:
		default:
			b.ahead.Store(int64(st))
		}
	}
	return ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

// TestGetStreamStalledHeadStripe drives the stalled-head schedule (see
// TestPipeStalledHeadOrdered) through GetStream itself: the reads of the
// stripe the writer waits on stall while the workers behind it run. The
// object still arrives whole and in order, and nothing past the window is
// read while the head is parked.
func TestGetStreamStalledHeadStripe(t *testing.T) {
	const par = 4
	allowWidth(t, par)
	base := testStore(t, Config{BlockSize: 64})
	stall := &headStallBackend{Backend: base.backend, width: par, released: make(chan struct{})}
	s, err := NewWithBackend(base.g, stall, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(3*par*s.codec.Capacity()+5, 9)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := s.GetStream(context.Background(), "obj", &buf, WithParallelism(par)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("payload mismatch after a stalled head stripe")
	}
	if st := stall.ahead.Load(); st != 0 {
		t.Errorf("stripe %d was read while stripe 0 was parked: more than %d stripes in flight", st, par)
	}
}

type cancelAfterWriter struct {
	after   int
	written int
	cancel  context.CancelFunc
	once    sync.Once
}

func (c *cancelAfterWriter) Write(p []byte) (int, error) {
	c.written += len(p)
	if c.written >= c.after {
		c.once.Do(c.cancel)
	}
	return len(p), nil
}

// TestStreamBoundedWindow: with parallelism P, the ingest pipeline never
// reads more than its buffer pool ahead of a stalled backend write — the
// O(parallelism × stripe) memory bound, observed from the reader side.
func TestStreamBoundedWindow(t *testing.T) {
	base := testStore(t, Config{BlockSize: 64})
	cap := base.codec.Capacity()
	const par = 2
	gate := make(chan struct{})
	slow := &gateBackend{Backend: base.backend, gate: gate}
	s, err := NewWithBackend(base.g, slow, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	src := &countReader{data: payload(20*cap, 5)}
	done := make(chan error, 1)
	go func() {
		_, err := s.PutStream(context.Background(), "obj", src, WithParallelism(par))
		done <- err
	}()
	slow.waitStalled()
	// par buffers in flight plus the one the reader may be filling.
	if consumed := src.consumed(); consumed > (par+1)*cap {
		t.Errorf("pipeline read %d bytes ahead with parallelism %d (bound %d)", consumed, par, (par+1)*cap)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := s.GetStream(context.Background(), "obj", &buf); err != nil || !bytes.Equal(buf.Bytes(), src.data) {
		t.Fatalf("round trip after gated ingest: %v", err)
	}
}

// gateBackend blocks every Write until its gate closes.
type gateBackend struct {
	Backend
	gate    chan struct{}
	mu      sync.Mutex
	stalled int
}

func (b *gateBackend) Write(ctx context.Context, node int, key []byte, data []byte) error {
	b.mu.Lock()
	b.stalled++
	b.mu.Unlock()
	<-b.gate
	return b.Backend.Write(ctx, node, key, data)
}

func (b *gateBackend) waitStalled() {
	for {
		b.mu.Lock()
		n := b.stalled
		b.mu.Unlock()
		if n > 0 {
			return
		}
	}
}

// countReader serves data while counting bytes handed out.
type countReader struct {
	data []byte
	mu   sync.Mutex
	off  int
}

func (c *countReader) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.off >= len(c.data) {
		return 0, io.EOF
	}
	n := copy(p, c.data[c.off:])
	c.off += n
	return n, nil
}

func (c *countReader) consumed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.off
}

// TestReadStripe covers the serve layer's cache-fill primitive: each stripe
// reads back exactly its slice of the object, out-of-range stripes report
// ErrNotFound, and the returned buffer is caller-owned (mutating it must
// not corrupt a later read).
func TestReadStripe(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	cap := s.codec.Capacity()
	data := payload(3*cap+11, 7)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < 4; st++ {
		got, _, err := s.ReadStripe(context.Background(), "obj", st)
		if err != nil {
			t.Fatalf("ReadStripe(%d): %v", st, err)
		}
		lo := st * cap
		hi := min(lo+cap, len(data))
		if !bytes.Equal(got, data[lo:hi]) {
			t.Fatalf("ReadStripe(%d) mismatch", st)
		}
		for i := range got {
			got[i] = 0xFF // caller-owned: scribbling must be harmless
		}
	}
	if _, _, err := s.ReadStripe(context.Background(), "obj", 4); !errors.Is(err, ErrNotFound) {
		t.Errorf("out-of-range stripe: %v", err)
	}
	if _, _, err := s.ReadStripe(context.Background(), "obj", -1); !errors.Is(err, ErrNotFound) {
		t.Errorf("negative stripe: %v", err)
	}
	got, _, err := s.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("Get after ReadStripe scribbles: %v", err)
	}
}
