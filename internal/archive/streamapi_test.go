package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// TestStreamRoundTrip pushes multi-stripe objects through PutStream and
// GetStream at several pipeline widths, including payloads that end exactly
// on a stripe boundary and mid-block.
func TestStreamRoundTrip(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	cap := s.codec.Capacity()
	sizes := []int{0, 1, cap - 1, cap, cap + 1, 3*cap + 17, 5 * cap}
	for _, par := range []int{1, 2, 4} {
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
			var buf bytes.Buffer
			read, _, err := s.GetStream(context.Background(), name, &buf, WithParallelism(par))
			if err != nil {
				t.Fatalf("GetStream(par=%d, n=%d): %v", par, n, err)
			}
			if read != n || !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("round trip mismatch par=%d n=%d (read %d)", par, n, read)
			}
			// Cross-API: the streamed object must read back through Get too.
			got, _, err := s.Get(name)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Get after PutStream: %v", err)
			}
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
	if err := s.Put("obj", data); err != nil {
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

// TestGetStreamStalledHeadStripe forces the schedule that used to deadlock
// the parallel read pipeline: the worker holding the stripe the in-order
// writer waits on is stalled right after picking it up, while the other
// workers run ahead until the payload pool is drained (every buffer parked
// behind the head stripe). Buffers travel with the job, so the stalled
// stripe already holds one and finishes when released; a pipeline that let
// workers take buffers after pickup would leave it starved here forever.
func TestGetStreamStalledHeadStripe(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	const par = 4
	data := payload(3*par*s.codec.Capacity()+5, 9)
	if err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	var once sync.Once
	s.getStreamHook = func(st, free int) {
		if free == 0 {
			once.Do(func() { close(drained) })
		}
		if st == 0 {
			<-drained
		}
	}
	type outcome struct {
		got []byte
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var buf bytes.Buffer
		_, _, err := s.GetStream(context.Background(), "obj", &buf, WithParallelism(par))
		done <- outcome{buf.Bytes(), err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !bytes.Equal(o.got, data) {
			t.Error("payload mismatch after a stalled head stripe")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("GetStream hung with the head stripe stalled and the pool drained")
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

// TestParallelWrappersStillWork pins the compatibility contract: the
// deprecated entry points remain correct as thin wrappers over the streams.
func TestParallelWrappersStillWork(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	data := payload(3*s.codec.Capacity()+100, 6)
	if err := s.PutParallel("p", data, 3); err != nil {
		t.Fatal(err)
	}
	got, stats, err := s.GetParallel("p", 3)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("PutParallel/GetParallel round trip: %v", err)
	}
	if stats.DevicesAccessed == 0 || stats.BlocksRead == 0 {
		t.Errorf("GetParallel stats not aggregated: %+v", stats)
	}
	if err := s.PutParallel("p", data, 3); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate PutParallel: %v", err)
	}
}

// TestReadStripe covers the serve layer's cache-fill primitive: each stripe
// reads back exactly its slice of the object, out-of-range stripes report
// ErrNotFound, and the returned buffer is caller-owned (mutating it must
// not corrupt a later read).
func TestReadStripe(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	cap := s.codec.Capacity()
	data := payload(3*cap+11, 7)
	if err := s.Put("obj", data); err != nil {
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
	got, _, err := s.Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("Get after ReadStripe scribbles: %v", err)
	}
}
