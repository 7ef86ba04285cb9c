package archive

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestReadStripeAllocBudget is the allocation gate on the serve layer's
// cache-fill read. Frames land in the scratch's arena (ReaderInto), so the
// one allocation a healthy ReadStripe needs is the caller-owned payload: it
// may allocate twice and payload + 4 KiB, per stripe, as the slope between
// reading 8 and 64 stripes. One caller-owned frame per data block (a backend
// read through the Read adapter) overshoots it 24-fold, one scratch built per
// call (a planner, a kernel, two 96-block arenas) by more.
func TestReadStripeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the free list drops scratches at random under the race detector")
	}
	// A collection empties the free list, and a scratch put back on one P
	// is not found from another.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := benchStore(t)
	layout := s.Layout()
	if err := s.PutCtx(ctx, "obj", payload(64*layout.StripeCapacity, 1)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(stripes int) (allocs, size float64) {
		const runs = 5
		var before, after runtime.MemStats
		for run := -1; run < runs; run++ { // run -1 warms the free list
			if run == 0 {
				runtime.ReadMemStats(&before)
			}
			for st := 0; st < stripes; st++ {
				if _, _, err := s.ReadStripe(ctx, "obj", st); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	shortAllocs, shortBytes := measure(8)
	longAllocs, longBytes := measure(64)
	allocs := (longAllocs - shortAllocs) / (64 - 8)
	size := (longBytes - shortBytes) / (64 - 8)
	t.Logf("per healthy stripe: %.1f allocations, %.0f bytes", allocs, size)
	if allocs > 2 {
		t.Errorf("ReadStripe allocates %.1f times per healthy stripe, over the budget of 2", allocs)
	}
	if budget := float64(layout.StripeCapacity + 4096); size > budget {
		t.Errorf("ReadStripe allocates %.0f bytes per healthy stripe, over the budget of %.0f", size, budget)
	}
}

// TestReadStripeOwnership: the slice ReadStripe returns is exactly the
// payload (len == cap, so a cache holding it holds nothing else), and it is
// the caller's — the store decoded into it but keeps no reference, so no
// later read, of this stripe or another, writes to it.
func TestReadStripeOwnership(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	stripeCap := s.Layout().StripeCapacity
	data := payload(2*stripeCap+11, 7)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for st, want := range []int{stripeCap, stripeCap, 11} {
		got, _, err := s.ReadStripe(ctx, "obj", st)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want || cap(got) != want {
			t.Errorf("stripe %d: len %d cap %d, want both %d", st, len(got), cap(got), want)
		}
	}

	held, _, err := s.ReadStripe(ctx, "obj", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range held {
		held[i] = 0xAA
	}
	for st := 0; st < 3; st++ {
		got, _, err := s.ReadStripe(ctx, "obj", st)
		if err != nil {
			t.Fatal(err)
		}
		if lo := st * stripeCap; !bytes.Equal(got, data[lo:min(lo+stripeCap, len(data))]) {
			t.Errorf("stripe %d read back wrong after the caller scribbled on an earlier result", st)
		}
	}
	for i, b := range held {
		if b != 0xAA {
			t.Fatalf("a later ReadStripe wrote byte %d of a slice the caller owns", i)
		}
	}
}

// TestReadStripeIntoOwnership: ReadStripeInto decodes into a dst that holds
// the payload — the result is dst, cap and all — and replaces one that does
// not with a fresh slice exactly as long as the payload. Either way the store
// keeps no reference: later reads, into other buffers or into none, leave
// what the caller holds alone, and a failed read hands nothing back.
func TestReadStripeIntoOwnership(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	stripeCap := s.Layout().StripeCapacity
	data := payload(2*stripeCap+11, 8)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := func(st int) []byte { return data[st*stripeCap : min((st+1)*stripeCap, len(data))] }

	big := make([]byte, 3, stripeCap+5) // fits, with room to spare and stale length
	got, _, err := s.ReadStripeInto(ctx, "obj", 0, big)
	if err != nil || !bytes.Equal(got, want(0)) {
		t.Fatalf("stripe 0 into a roomy dst: %v, exact=%v", err, bytes.Equal(got, want(0)))
	}
	if &got[0] != &big[:1][0] || cap(got) != cap(big) {
		t.Errorf("a dst that fits was not used: result cap %d, dst cap %d", cap(got), cap(big))
	}

	short := make([]byte, 0, 10)
	tail, _, err := s.ReadStripeInto(ctx, "obj", 1, short)
	if err != nil || !bytes.Equal(tail, want(1)) {
		t.Fatalf("stripe 1 into a short dst: %v", err)
	}
	if len(tail) != stripeCap || cap(tail) != stripeCap || &tail[0] == &short[:1][0] {
		t.Errorf("a short dst: result len %d cap %d (aliases dst: %v), want a fresh slice of %d",
			len(tail), cap(tail), &tail[0] == &short[:1][0], stripeCap)
	}
	exact := make([]byte, 0, 11)
	if last, _, err := s.ReadStripeInto(ctx, "obj", 2, exact); err != nil || !bytes.Equal(last, want(2)) || &last[0] != &exact[:1][0] {
		t.Errorf("stripe 2 into an exactly sized dst: %v", err)
	}

	for st := 0; st < 3; st++ { // reads into other buffers and into none
		if _, _, err := s.ReadStripeInto(ctx, "obj", st, make([]byte, 0, stripeCap)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ReadStripe(ctx, "obj", st); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want(0)) || !bytes.Equal(tail, want(1)) {
		t.Error("a later read wrote to a payload the caller holds")
	}
	if p, _, err := s.ReadStripeInto(ctx, "obj", 3, big); !errors.Is(err, ErrNotFound) || p != nil {
		t.Errorf("stripe past the end: %d bytes, %v", len(p), err)
	}
}

// TestReadStripeConcurrentReaders: eight goroutines reading distinct stripes
// at once each get their own stripe's bytes — scratches from the free list
// are never shared. Meaningful under -race.
func TestReadStripeConcurrentReaders(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	stripeCap := s.Layout().StripeCapacity
	data := payload(8*stripeCap, 9)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for st := 0; st < 8; st++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got, _, err := s.ReadStripe(context.Background(), "obj", st)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, data[st*stripeCap:(st+1)*stripeCap]) {
					t.Errorf("reader of stripe %d got another stripe's bytes", st)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadStripeErrorReturnsScratch: a ReadStripe that fails — cancelled, or
// on a stripe past recovery — hands its scratch back like one that succeeds.
func TestReadStripeErrorReturnsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the free list drops scratches at random under the race detector")
	}
	// A collection empties the free list, and a scratch put back on one P
	// is not found from another.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := testStore(t, Config{BlockSize: 64})
	if err := s.PutCtx(ctx, "obj", payload(100, 3)); err != nil {
		t.Fatal(err)
	}
	built := 0
	s.scratches.New = func() any { built++; return s.newScratch() }
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.ReadStripe(cancelled, "obj", 0); !errIsCtx(err) {
		t.Fatalf("cancelled read: %v", err)
	}
	// The payload fills data blocks 0 and 1; the rest of the data is zero
	// padding, known to the read, so only failing both live blocks and every
	// check puts the stripe past recovery.
	for node, d := range s.Devices() {
		if node < 2 || node >= s.g.Data {
			d.Fail()
		}
	}
	if _, _, err := s.ReadStripe(context.Background(), "obj", 0); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("read with the live data and every check failed: %v", err)
	}
	if _, _, err := s.ReadStripe(context.Background(), "obj", 0); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("read with the live data and every check failed: %v", err)
	}
	// Put's scratch served all three: none was built, so each came back.
	if built != 0 {
		t.Errorf("three failing reads after a Put built %d scratches; each should reuse the one before", built)
	}
}
