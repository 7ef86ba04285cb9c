package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/graph"
	"tornado/internal/obs"
)

// testGraph builds the graph every test store uses.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testService builds a service over one array-backed store and returns the
// store as a one-element slice, the form the cache tests index; stores must
// be 1.
func testService(t testing.TB, stores int, cfg Config) (*Service, []*archive.Store) {
	t.Helper()
	if stores != 1 {
		t.Fatalf("a service fronts one store, not %d", stores)
	}
	g := testGraph(t)
	st, err := archive.New(g, device.NewArray(g.Total), archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, []*archive.Store{st}
}

func testPayload(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

// TestTenantIsolation: two tenants use the same object name with different
// bytes; each sees only its own data and namespace, a duplicate Put is a
// conflict that leaves the stored object intact, and deleting one tenant's
// object leaves the other's untouched.
func TestTenantIsolation(t *testing.T) {
	svc, _ := testService(t, 1, Config{})
	ctx := context.Background()
	a := testPayload(5000, 1)
	b := testPayload(5000, 2)
	if _, err := svc.Put(ctx, "alice", "report", bytes.NewReader(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Put(ctx, "bob", "report", bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Put(ctx, "alice", "report", bytes.NewReader(b)); !errors.Is(err, archive.ErrExists) {
		t.Errorf("duplicate Put = %v, want %v", err, archive.ErrExists)
	}
	var bufA, bufB bytes.Buffer
	if _, err := svc.Get(ctx, "alice", "report", &bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Get(ctx, "bob", "report", &bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), a) || !bytes.Equal(bufB.Bytes(), b) {
		t.Fatal("tenants see each other's bytes")
	}
	objsA, err := svc.List("alice")
	if err != nil || len(objsA) != 1 || objsA[0].Name != "report" {
		t.Fatalf("List(alice) = %+v, %v", objsA, err)
	}
	if err := svc.Delete(ctx, "alice", "report"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Stat(ctx, "alice", "report"); !errors.Is(err, archive.ErrNotFound) {
		t.Errorf("alice's object survives delete: %v", err)
	}
	if _, err := svc.Get(ctx, "alice", "report", io.Discard); !errors.Is(err, archive.ErrNotFound) {
		t.Errorf("Get after delete = %v, want %v", err, archive.ErrNotFound)
	}
	var again bytes.Buffer
	if _, err := svc.Get(ctx, "bob", "report", &again); err != nil || !bytes.Equal(again.Bytes(), b) {
		t.Errorf("bob's object damaged by alice's delete: %v", err)
	}
}

// TestFixedTenantSet: with Tenants configured, others are refused.
func TestFixedTenantSet(t *testing.T) {
	svc, _ := testService(t, 1, Config{Tenants: []string{"alice"}})
	ctx := context.Background()
	if _, err := svc.Put(ctx, "alice", "x", strings.NewReader("hi")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Put(ctx, "mallory", "x", strings.NewReader("hi")); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant admitted: %v", err)
	}
	if _, err := svc.Put(ctx, "a/b", "x", strings.NewReader("hi")); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("tenant with '/' admitted: %v", err)
	}
}

// gateWriter blocks the first Write until its gate closes, pinning a Get
// inflight.
type gateWriter struct {
	gate    <-chan struct{}
	entered chan<- struct{}
	once    sync.Once
	buf     bytes.Buffer
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.buf.Write(p)
}

// TestAdmissionBackpressure: MaxInflight=1/MaxQueue=1 admits one request,
// queues one, and sheds the third with ErrOverloaded; the queued request
// proceeds once the slot frees.
func TestAdmissionBackpressure(t *testing.T) {
	svc, _ := testService(t, 1, Config{MaxInflight: 1, MaxQueue: 1})
	ctx := context.Background()
	data := testPayload(2000, 3)
	if _, err := svc.Put(ctx, "t", "obj", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	entered := make(chan struct{})
	gw := &gateWriter{gate: gate, entered: entered}
	firstDone := make(chan error, 1)
	go func() {
		_, err := svc.Get(ctx, "t", "obj", gw)
		firstDone <- err
	}()
	<-entered // request 1 holds the only slot

	secondDone := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		_, err := svc.Get(ctx, "t", "obj", &buf)
		secondDone <- err
	}()
	// Wait until request 2 is actually queued, then request 3 must shed.
	tn, err := svc.tenantFor("t")
	if err != nil {
		t.Fatal(err)
	}
	for tn.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var buf bytes.Buffer
	if _, err := svc.Get(ctx, "t", "obj", &buf); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request not shed: %v", err)
	}
	if svc.metrics.Counter("serve.overloaded").Value() == 0 {
		t.Error("overload not counted")
	}

	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := <-secondDone; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gw.buf.Bytes(), data) {
		t.Error("gated read returned wrong bytes")
	}
	// Admission also applies per tenant: another tenant is unaffected
	// while this one is saturated.
	if _, err := svc.Put(ctx, "other", "obj", bytes.NewReader(data)); err != nil {
		t.Errorf("second tenant throttled by first: %v", err)
	}
}

// blockingBackend parks every read until the request context dies,
// modeling a wedged store; Writes pass through so Puts land.
type blockingBackend struct {
	archive.Backend
	mu      sync.Mutex
	blocked int
}

func (b *blockingBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	b.mu.Lock()
	b.blocked++
	b.mu.Unlock()
	<-ctx.Done()
	return nil, ctx.Err()
}

func (b *blockingBackend) blockedReads() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.blocked
}

// expectNoGoroutineLeak waits for the goroutine count to fall back to the
// baseline taken before a Get, and reports a leak if it does not.
func expectNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak after Get: %d > %d", n, before)
	}
}

// TestGetStalledCallerCancel: the store wedges on read and the caller gives
// up. The Get returns the caller's ctx.Err() promptly — not a hang — and no
// goroutine outlives the request.
func TestGetStalledCallerCancel(t *testing.T) {
	g := testGraph(t)
	stalled := &blockingBackend{Backend: archive.NewArrayBackend(device.NewArray(g.Total))}
	st, err := archive.NewWithBackend(g, stalled, archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(2*st.Layout().StripeCapacity, 9)
	if _, err := svc.Put(context.Background(), "t", "obj", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Get(ctx, "t", "obj", io.Discard)
		done <- err
	}()
	for stalled.blockedReads() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Get with the store stalled and the caller gone: %v, want %v", err, context.Canceled)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get hung after the caller cancelled")
	}
	expectNoGoroutineLeak(t, before)
}

// TestGetDeadStoreIsDataLoss: a store whose devices have all failed reports
// the loss — ErrDataLoss from Get — never empty success.
func TestGetDeadStoreIsDataLoss(t *testing.T) {
	svc, stores := testService(t, 1, Config{})
	ctx := context.Background()
	if _, err := svc.Put(ctx, "t", "obj", bytes.NewReader(testPayload(3000, 5))); err != nil {
		t.Fatal(err)
	}
	for _, d := range stores[0].Devices() {
		d.Fail()
	}
	var buf bytes.Buffer
	if _, err := svc.Get(ctx, "t", "obj", &buf); !errors.Is(err, archive.ErrDataLoss) {
		t.Errorf("Get from a dead store: %v, want %v", err, archive.ErrDataLoss)
	}
}

// TestCacheCoherence: a stripe cached before damage is healed by
// read-repair stays bit-exact, and a delete + re-put under the same name
// invalidates — the cache never serves the old object's bytes.
func TestCacheCoherence(t *testing.T) {
	g := testGraph(t)
	reg := obs.NewRegistry()
	inj := chaos.Wrap(archive.NewArrayBackend(device.NewArray(g.Total)), chaos.Config{Seed: 9, Metrics: reg})
	st, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := testPayload(2*st.Layout().StripeCapacity, 6)
	if _, err := svc.Put(ctx, "t", "obj", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	// Damage a stored frame, then read through the service: read-repair
	// heals it mid-Get and the cache fills with the (correct) payload.
	if err := inj.CorruptStored(3, "t\x00obj/0/3"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := svc.Get(ctx, "t", "obj", &buf); err != nil || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("Get through damage: %v", err)
	}
	// Second read is a cache hit and still bit-exact.
	hits := svc.metrics.Counter("serve.cache.hits").Value()
	buf.Reset()
	if _, err := svc.Get(ctx, "t", "obj", &buf); err != nil || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("cached Get: %v", err)
	}
	if svc.metrics.Counter("serve.cache.hits").Value() <= hits {
		t.Error("second read did not hit the cache")
	}

	// Replace the object: the cache must not serve the old bytes.
	if err := svc.Delete(ctx, "t", "obj"); err != nil {
		t.Fatal(err)
	}
	fresh := testPayload(2*st.Layout().StripeCapacity, 7)
	if _, err := svc.Put(ctx, "t", "obj", bytes.NewReader(fresh)); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := svc.Get(ctx, "t", "obj", &buf); err != nil || !bytes.Equal(buf.Bytes(), fresh) {
		t.Fatalf("Get after re-put served stale bytes: %v", err)
	}
}

// gateBackend stalls the first read of one key until the test releases it,
// and tells the test when a read got there.
type gateBackend struct {
	archive.Backend
	key     string
	armed   atomic.Bool
	reached chan struct{}
	release chan struct{}
}

func (b *gateBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	if string(key) == b.key && b.armed.CompareAndSwap(true, false) {
		close(b.reached)
		<-b.release
	}
	return archive.ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

// TestCacheFillRacingDeleteAndPut: a Get misses stripe 0 and is held on its
// first block read while the object is deleted and put again, shorter, under
// the same name; its fill lands after both invalidations. That fill must not
// be cached — the next Get must serve the new object. (What the racing Get
// itself returns is torn, and not checked.)
func TestCacheFillRacingDeleteAndPut(t *testing.T) {
	g := testGraph(t)
	gate := &gateBackend{
		Backend: archive.NewArrayBackend(device.NewArray(g.Total)),
		key:     "t\x00obj/0/0",
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	st, err := archive.NewWithBackend(g, gate, archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stripeCap := st.Layout().StripeCapacity
	fresh := testPayload(stripeCap/2, 2)
	if _, err := svc.Put(ctx, "t", "obj", bytes.NewReader(testPayload(2*stripeCap, 1))); err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	raced := make(chan struct{})
	go func() {
		defer close(raced)
		_, _ = svc.Get(ctx, "t", "obj", io.Discard)
	}()
	<-gate.reached
	if err := svc.Delete(ctx, "t", "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Put(ctx, "t", "obj", bytes.NewReader(fresh)); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	<-raced
	var buf bytes.Buffer
	if _, err := svc.Get(ctx, "t", "obj", &buf); err != nil || !bytes.Equal(buf.Bytes(), fresh) {
		t.Fatalf("Get after the racing fill: %v, exact=%v", err, bytes.Equal(buf.Bytes(), fresh))
	}
}

// TestCacheBudget: the cache evicts rather than exceed its byte budget.
func TestCacheBudget(t *testing.T) {
	svc, stores := testService(t, 1, Config{CacheBytes: 7000})
	ctx := context.Background()
	cap := stores[0].Layout().StripeCapacity // one stripe per object
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("obj%d", i)
		if _, err := svc.Put(ctx, "t", name, bytes.NewReader(testPayload(cap, uint64(i)))); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := svc.Get(ctx, "t", name, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.metrics.Gauge("serve.cache.bytes").Value(); got > 7000 {
		t.Errorf("cache holds %d bytes, budget 7000", got)
	}
	if svc.metrics.Counter("serve.cache.evictions").Value() == 0 {
		t.Error("no evictions despite exceeding the budget")
	}
}

// TestServeChaosSoak: the service under a deterministic fault schedule with
// a concurrent repair scrub, driven the way clients drive it — concurrent
// workers, two tenants, fresh Puts beside the Gets. Every Get must return
// bit-exact data or an explicit error, never silently wrong bytes.
func TestServeChaosSoak(t *testing.T) {
	g := testGraph(t)
	reg := obs.NewRegistry()
	inj := chaos.Wrap(archive.NewArrayBackend(device.NewArray(g.Total)), chaos.Config{
		Seed:            11,
		BitFlipRate:     0.002,
		ReadCorruptRate: 0.002,
		TruncateRate:    0.001,
		ReadErrRate:     0.01,
		WriteErrRate:    0.005,
		TornWriteRate:   0.001,
		Metrics:         reg,
	})
	st, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(st, Config{CacheBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cap := st.Layout().StripeCapacity
	tenants := []string{"a", "b"}

	// The Gets read the preloaded objects; want gains every object a Put
	// stored, keyed tenant/name.
	const objects = 12
	preload := make([][]byte, objects)
	var mu sync.Mutex
	want := map[[2]string][]byte{}
	for i := range preload {
		preload[i] = testPayload((i%3+1)*cap+i*7, uint64(100+i))
		key := [2]string{tenants[i%2], fmt.Sprintf("obj%d", i)}
		if _, err := svc.Put(ctx, key[0], key[1], bytes.NewReader(preload[i])); err != nil {
			t.Fatalf("put %s/%s: %v", key[0], key[1], err)
		}
		want[key] = preload[i]
	}

	// Concurrent repair scrubs while the load runs.
	scrubCtx, stopScrub := context.WithCancel(ctx)
	scrubDone := make(chan struct{})
	go func() {
		defer close(scrubDone)
		for scrubCtx.Err() == nil {
			_, _ = st.ScrubCtx(scrubCtx, true)
		}
	}()

	// Four closed-loop workers share 300 operations: 80% Gets of a stored
	// object, 20% Puts of a fresh one.
	const workers, ops = 4, 300
	var silent, errored, gets, puts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(12, uint64(w)))
			for op := 0; op < ops/workers; op++ {
				if rng.Float64() < 0.2 {
					data := testPayload(1+rng.IntN(2*cap), rng.Uint64())
					key := [2]string{tenants[rng.IntN(2)], fmt.Sprintf("w%d-%d", w, op)}
					puts.Add(1)
					if _, err := svc.Put(ctx, key[0], key[1], bytes.NewReader(data)); err != nil {
						errored.Add(1)
						continue
					}
					mu.Lock()
					want[key] = data
					mu.Unlock()
					continue
				}
				i := rng.IntN(objects)
				key := [2]string{tenants[i%2], fmt.Sprintf("obj%d", i)}
				var buf bytes.Buffer
				gets.Add(1)
				if _, err := svc.Get(ctx, key[0], key[1], &buf); err != nil {
					errored.Add(1) // explicit failure is allowed; silence is not
					continue
				}
				if !bytes.Equal(buf.Bytes(), preload[i]) {
					silent.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	stopScrub()
	<-scrubDone
	if silent.Load() > 0 {
		t.Fatalf("%d silent corruptions under chaos + concurrent scrub (%d explicit errors)", silent.Load(), errored.Load())
	}
	if gets.Load() == 0 || puts.Load() == 0 {
		t.Fatalf("mix degenerate: %d gets, %d puts", gets.Load(), puts.Load())
	}

	// After the faults stop, a repair scrub converges and every stored
	// object verifies, in its own tenant only.
	inj.Quiesce()
	if _, err := st.ScrubCtx(ctx, true); err != nil {
		t.Fatal(err)
	}
	for key, data := range want {
		var buf bytes.Buffer
		if _, err := svc.Get(ctx, key[0], key[1], &buf); err != nil {
			t.Errorf("%s/%s after quiesce: %v", key[0], key[1], err)
		} else if !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("%s/%s bytes differ after quiesce", key[0], key[1])
		}
		other := tenants[0]
		if key[0] == other {
			other = tenants[1]
		}
		if _, err := svc.Stat(ctx, other, key[1]); err == nil {
			t.Errorf("%s/%s is visible to tenant %s", key[0], key[1], other)
		}
	}
}
