package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tornado/internal/archive"
	"tornado/internal/device"
	"tornado/internal/obs"
)

// freeCount reports how many times b's backing array is on c's free list.
func freeCount(c *stripeCache, b []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, f := range c.free {
		if &f[:1][0] == &b[:1][0] {
			n++
		}
	}
	return n
}

// TestCacheRecyclesOnlyUnpinned: an entry that is evicted, invalidated or
// replaced while readers hold it pinned keeps its buffer off the free list
// until the last of them unpins — then the buffer is on it exactly once, and
// a miss of its size takes it back.
func TestCacheRecyclesOnlyUnpinned(t *testing.T) {
	const size = 10
	c := newStripeCache(3*size, obs.NewRegistry())
	// complete fills a miss's entry with a fresh buffer.
	complete := func(f *cacheEntry) (*cacheEntry, []byte) {
		b := make([]byte, size)
		return c.add(f, b), b
	}
	fill := func(key string, st int) (*cacheEntry, []byte) {
		t.Helper()
		f, hit := c.get(key, st)
		if hit {
			t.Fatalf("%s/%d is already cached", key, st)
		}
		return complete(f)
	}
	expect := func(what string, b []byte, want int) {
		t.Helper()
		if got := freeCount(c, b); got != want {
			t.Fatalf("%s: buffer on the free list %d times, want %d", what, got, want)
		}
	}
	// drain takes every free buffer, as misses of their size would, and
	// checks they are the ones expected.
	drain := func(what string, want ...[]byte) {
		t.Helper()
		if b := c.take(size + 1); b != nil {
			t.Fatalf("%s: take(%d) handed out a %d-byte buffer", what, size+1, cap(b))
		}
		for range want {
			b := c.take(size)
			if b == nil || len(b) != 0 || cap(b) != size {
				t.Fatalf("%s: take(%d) = len %d cap %d", what, size, len(b), cap(b))
			}
			if !slices.ContainsFunc(want, func(w []byte) bool { return &w[0] == &b[:1][0] }) {
				t.Fatalf("%s: take handed out a buffer that was not released", what)
			}
		}
		if b := c.take(size); b != nil || c.freeBytes != 0 {
			t.Fatalf("%s: %d bytes left on the free list", what, c.freeBytes)
		}
	}

	// Evicted while pinned by the reader that filled it and by a second one.
	a, aBuf := fill("a", 0)
	again, ok := c.get("a", 0)
	if !ok || again != a {
		t.Fatal("a fresh entry is not served")
	}
	for st := 1; st <= 3; st++ { // three more stripes push "a" out
		ent, _ := fill("b", st)
		c.unpin(ent)
	}
	if _, ok := c.get("a", 0); ok {
		t.Fatal("a was not evicted")
	}
	expect("evicted, pinned twice", aBuf, 0)
	c.unpin(a)
	expect("evicted, pinned once", aBuf, 0)
	c.unpin(again)
	expect("evicted, unpinned", aBuf, 1)
	drain("evicted", aBuf)

	// Invalidated while pinned: the object's other, unpinned stripes go
	// straight to the free list, the pinned one after its unpin.
	b1, ok := c.get("b", 1)
	if !ok {
		t.Fatal("b/1 missing")
	}
	b2, _ := c.get("b", 2)
	b3, _ := c.get("b", 3)
	c.unpin(b2)
	c.unpin(b3)
	c.invalidate("b")
	expect("invalidated, pinned", b1.payload, 0)
	expect("invalidated, unpinned", b2.payload, 1)
	c.unpin(b1)
	expect("invalidated, unpinned after", b1.payload, 1)
	drain("invalidated", b1.payload, b2.payload, b3.payload)

	// Replaced by a duplicate add while pinned: two misses of one stripe, the
	// later fill landing second.
	f1, _ := c.get("c", 0)
	f2, _ := c.get("c", 0)
	old, oldBuf := complete(f1)
	repl, replBuf := complete(f2)
	expect("replaced, pinned", oldBuf, 0)
	c.unpin(old)
	expect("replaced, unpinned", oldBuf, 1)
	c.unpin(repl)
	expect("resident, unpinned", replBuf, 0)
	if got, ok := c.get("c", 0); !ok || &got.payload[0] != &replBuf[0] {
		t.Fatal("the replacing entry is not the one served")
	} else {
		c.unpin(got)
	}
	drain("replaced", oldBuf)
}

// TestCacheVoidedFillNotCached: a miss whose object is invalidated before its
// fill lands hands the payload to its reader but does not cache it, and the
// buffer goes to the free list once the reader is done; an abandoned fill
// leaves nothing pending.
func TestCacheVoidedFillNotCached(t *testing.T) {
	c := newStripeCache(100, obs.NewRegistry())
	f, hit := c.get("a", 0)
	if hit {
		t.Fatal("empty cache hit")
	}
	c.invalidate("a")
	buf := make([]byte, 10)
	ent := c.add(f, buf)
	if &ent.payload[0] != &buf[0] {
		t.Fatal("the reader did not get its payload")
	}
	if got, hit := c.get("a", 0); hit {
		t.Fatalf("a voided fill was cached: %v", got.payload)
	} else {
		c.abandon(got)
	}
	c.unpin(ent)
	if n := freeCount(c, buf); n != 1 {
		t.Errorf("voided fill's buffer on the free list %d times, want 1", n)
	}
	if len(c.pending) != 0 || c.bytes != 0 {
		t.Errorf("%d fills pending, %d bytes resident; want none", len(c.pending), c.bytes)
	}
}

// TestCacheFreeListBounded: the free list keeps at most freeBuffers buffers
// and no more bytes than the budget, dropping the oldest, and never keeps a
// payload too large to be cached.
func TestCacheFreeListBounded(t *testing.T) {
	c := newStripeCache(100, obs.NewRegistry())
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recycleLocked(make([]byte, 101))
	if len(c.free) != 0 {
		t.Fatal("a payload larger than the budget was kept")
	}
	var last []byte
	for range 2 * freeBuffers {
		last = make([]byte, 5)
		c.recycleLocked(last)
	}
	if len(c.free) != freeBuffers || &c.free[len(c.free)-1][:1][0] != &last[:1][0] {
		t.Fatalf("%d buffers kept, want the newest %d", len(c.free), freeBuffers)
	}
	c.recycleLocked(make([]byte, 90))
	if c.freeBytes > c.budget {
		t.Fatalf("free list holds %d bytes, budget %d", c.freeBytes, c.budget)
	}
}

// slowWriter is a reader's sink that holds each chunk a while before checking
// it against the object — long enough for other readers to evict, invalidate
// and refill around it — and records every byte it was given.
type slowWriter struct {
	want []byte
	off  int
	bad  bool
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(20 * time.Microsecond)
	runtime.Gosched()
	if w.off+len(p) > len(w.want) || !bytes.Equal(p, w.want[w.off:w.off+len(p)]) {
		w.bad = true
	}
	w.off += len(p)
	return len(p), nil
}

// TestCacheRecycleStress: eight readers over a cache that holds two stripes of
// a working set of many, each writing to a slow sink, beside a writer that
// deletes and re-puts objects — every miss decodes into a recycled buffer,
// every stripe is evicted while someone may hold it, and every byte any Get
// hands out must still be the object's. Meaningful under -race.
func TestCacheRecycleStress(t *testing.T) {
	svc, stores := testService(t, 1, Config{MaxInflight: 16})
	stripeCap := stores[0].Layout().StripeCapacity
	svc.cache = newStripeCache(2*stripeCap, svc.metrics)
	ctx := context.Background()
	const objects = 6
	data := make([][]byte, objects)
	for i := range data {
		data[i] = testPayload(3*stripeCap-i*5, uint64(40+i))
		if _, err := svc.Put(ctx, "t", fmt.Sprint(i), bytes.NewReader(data[i])); err != nil {
			t.Fatal(err)
		}
	}
	const readers, gets = 8, 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // delete + re-put the same bytes: invalidations under the readers
		defer close(stop)
		for i := range 10 {
			name := fmt.Sprint(i % objects)
			_ = svc.Delete(ctx, "t", name)
			if _, err := svc.Put(ctx, "t", name, bytes.NewReader(data[i%objects])); err != nil {
				t.Error(err)
			}
		}
	}()
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range gets {
				k := (r + i) % objects
				w := &slowWriter{want: data[k]}
				_, err := svc.Get(ctx, "t", fmt.Sprint(k), w)
				if w.bad {
					t.Errorf("reader %d got bytes that are not object %d's", r, k)
					return
				}
				if err == nil && w.off != len(data[k]) {
					t.Errorf("reader %d: object %d returned %d of %d bytes", r, k, w.off, len(data[k]))
				}
				// A Get that meets the Delete half-way fails, loudly — the
				// bytes it did deliver were checked above.
				if err != nil && !errors.Is(err, archive.ErrNotFound) && !errors.Is(err, archive.ErrDataLoss) {
					t.Errorf("reader %d: %v", r, err)
				}
			}
		}()
	}
	wg.Wait()
	<-stop
	if svc.metrics.Counter("serve.cache.evictions").Value() == 0 {
		t.Error("no evictions: the stress never recycled anything")
	}
}

// TestServeMissAllocBudget is the allocation gate on the cold Get: a warm
// service whose cache is smaller than the working set, read round-robin so
// that every stripe misses, decodes every stripe into a buffer the cache
// recycled — at most 4 allocations and under 1 KiB per missed stripe (the
// entry, its list element and the Get's own request bookkeeping), where a
// payload per miss is a whole stripe.
func TestServeMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the store's scratch free list drops entries at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc, stores := testService(t, 1, Config{})
	stripeCap := stores[0].Layout().StripeCapacity
	svc.cache = newStripeCache(6*stripeCap, svc.metrics)
	ctx := context.Background()
	const objects, stripes = 8, 4
	for i := range objects {
		if _, err := svc.Put(ctx, "t", fmt.Sprint(i), bytes.NewReader(testPayload(stripes*stripeCap-3, uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprint(i)
	}
	round := func() {
		for _, name := range names {
			if _, err := svc.Get(ctx, "t", name, io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // warm: scratches built, free list stocked
	misses := svc.metrics.Counter("serve.cache.misses")
	m0 := misses.Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 5
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	missed := float64(misses.Value() - m0)
	if want := float64(rounds * objects * stripes); missed != want {
		t.Fatalf("%.0f of %.0f stripes missed: the working set does not overflow the cache", missed, want)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / missed
	size := float64(after.TotalAlloc-before.TotalAlloc) / missed
	t.Logf("per missed stripe: %.2f allocations, %.0f bytes (stripe %d bytes)", allocs, size, stripeCap)
	if allocs > 4 {
		t.Errorf("a missed stripe costs %.2f allocations, over the budget of 4", allocs)
	}
	if size >= 1024 {
		t.Errorf("a missed stripe allocates %.0f bytes, over the budget of 1 KiB", size)
	}
}

// BenchmarkServeColdMiss is one cold Get through a service whose cache the
// working set overflows: admission, a miss per stripe, each decoded into a
// recycled buffer, and as many evictions. "4-stripe" objects are whole
// stripes; "1.33-stripe" ones are serve_cold's shape, a full stripe and one a
// third full. reads/get is the device reads of one Get, the live data blocks
// of its stripes: 4×48 and 48+16, where reading the second stripe's zero
// padding made the latter 2×48. -benchmem shows the miss path's allocations
// per op.
//
// Those rows' working sets are of 64-byte blocks, so what the miss path
// copies barely shows in them. "serve_cold-parallel" is the bench workload's
// shape: 4 KiB blocks, 256 objects of 256 KiB (eight times the default 8 MiB
// cache), Gets of uniformly random objects from GOMAXPROCS closed-loop
// clients, so nearly every stripe is a miss that moves whole 4 KiB blocks.
func BenchmarkServeColdMiss(b *testing.B) {
	for _, tc := range []struct {
		name   string
		thirds int // object size in thirds of a stripe
	}{{"4-stripe", 12}, {"1.33-stripe", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			svc, stores := testService(b, 1, Config{})
			stripeCap := stores[0].Layout().StripeCapacity
			svc.cache = newStripeCache(6*stripeCap, svc.metrics)
			ctx := context.Background()
			const objects = 8
			names := make([]string, objects)
			for i := range names {
				names[i] = fmt.Sprint(i)
				data := testPayload(tc.thirds*stripeCap/3, uint64(i))
				if _, err := svc.Put(ctx, "t", names[i], bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
			reads := func() (n int64) {
				for _, d := range stores[0].Devices() {
					n += d.Stats().Reads
				}
				return n
			}
			r0 := reads()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Get(ctx, "t", names[i%objects], io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(reads()-r0)/float64(b.N), "reads/get")
		})
	}
	b.Run("serve_cold-parallel", func(b *testing.B) {
		g := testGraph(b)
		st, err := archive.New(g, device.NewArray(g.Total), archive.Config{BlockSize: 4096})
		if err != nil {
			b.Fatal(err)
		}
		// Admission must not shed a client: the queue takes all of them.
		svc, err := New(st, Config{MaxQueue: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		const objects = 256
		for i := range objects {
			if _, err := svc.Put(ctx, "t", fmt.Sprint(i), bytes.NewReader(testPayload(256<<10, uint64(i)))); err != nil {
				b.Fatal(err)
			}
		}
		var seed atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewPCG(seed.Add(1), 0))
			for pb.Next() {
				if _, err := svc.Get(ctx, "t", fmt.Sprint(rng.IntN(objects)), io.Discard); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
