package archive

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentPutGetScrub exercises the store's concurrency contract:
// parallel writers, readers, a scrubber, and a failure injector. Run with
// -race in CI.
func TestConcurrentPutGetScrub(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64, FirstFailure: 4})
	// Seed some objects.
	base := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("seed-%d", i)
		data := payload(700+i*13, uint64(i))
		if err := s.PutCtx(ctx, name, data); err != nil {
			t.Fatal(err)
		}
		base[name] = data
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writers add fresh objects.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				if err := s.PutCtx(ctx, name, payload(300, uint64(w*100+i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Readers hammer the seeded objects.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				for name, want := range base {
					got, _, err := s.GetCtx(ctx, name)
					if err != nil {
						// Data loss is impossible here (no failures while
						// reading in this goroutine — the injector only
						// fails 2 devices, under the margin).
						errs <- err
						return
					}
					if !bytes.Equal(got, want) {
						errs <- errors.New("corrupt read")
						return
					}
				}
			}
		}(r)
	}
	// A scrubber loops.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := s.ScrubCtx(ctx, true); err != nil {
				errs <- err
				return
			}
		}
	}()
	// A failure injector takes out two drives (within margin), then
	// replaces them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(9, 9))
		ids := s.Devices().FailRandom(2, rng)
		for _, id := range ids {
			s.Devices()[id].Replace()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecordRaceReplace runs a device's Fail and Replace against the
// availability probe and the reads of an object written before them: once a
// Replace has returned, the object's record never covers the device again,
// and every read returns the object. Run it with -race: it is the check on
// the publication order — Replace bumps the epoch before it publishes Online,
// and the probe loads the state before the epoch.
func TestRecordRaceReplace(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	data := payload(3*s.Layout().StripeCapacity, 9)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	const victim = 7
	if !s.RecordCovers("obj", victim) {
		t.Fatal("a fresh object's record does not cover a healthy node")
	}
	var replaced atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 100 {
			if i%2 == 0 {
				s.Devices()[victim].Fail()
			} else {
				s.Devices()[victim].SetOffline() // replaced without failing first
			}
			s.Devices()[victim].Replace()
			replaced.Add(1)
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		after := replaced.Load() > 0
		if s.RecordCovers("obj", victim) && after {
			t.Fatal("the record covers a node whose medium was replaced")
		}
		got, _, err := s.GetCtx(ctx, "obj")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get beside Fail/Replace: %v, exact=%v", err, bytes.Equal(got, data))
		}
	}
}

// TestRenewalRaceDelete runs verifying scrubs against a shell that is written
// in full, deleted and registered again under the same name with nothing
// written: a pass that proved the first shell's blocks must not hand its
// proof to the second, so once the second is registered no record covers any
// of its nodes. Run it with -race: renewal and DeleteCtx meet under the
// store's lock.
func TestRenewalRaceDelete(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	lay := s.Layout()
	block := make([]byte, lay.BlockSize)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.ScrubCtx(ctx, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	for range 300 {
		if err := s.PutShell("s", lay.StripeCapacity, 1); err != nil {
			t.Fatal(err)
		}
		for node := range lay.NodesPerStripe {
			if err := s.WriteBlockCtx(ctx, "s", 0, node, block); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.DeleteCtx(ctx, "s"); err != nil {
			t.Fatal(err)
		}
		if err := s.PutShell("s", lay.StripeCapacity, 1); err != nil {
			t.Fatal(err)
		}
		for node := range lay.NodesPerStripe {
			if s.RecordCovers("s", node) {
				t.Fatalf("a shell with no block written is covered on node %d", node)
			}
		}
		if err := s.DeleteCtx(ctx, "s"); err != nil {
			t.Fatal(err)
		}
	}
}
