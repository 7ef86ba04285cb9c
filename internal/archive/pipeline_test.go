package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runPipe runs p and fails the test, instead of hanging it, if the pipeline
// wedges.
func runPipe(t *testing.T, ctx context.Context, p *stripePipe) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.run(ctx) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("stripePipe.run hung")
		return nil
	}
}

// firstN is a produce that yields n stripes.
func firstN(n int) func(*stripeSlot) (bool, error) {
	return func(sl *stripeSlot) (bool, error) { return sl.st < n, nil }
}

// TestPipeStalledHeadOrdered is the schedule that deadlocked the old read
// pipeline: the stripe the consumer waits on stalls until every other
// worker has finished a stripe and gone idle behind it. The head stripe
// holds its slot from before dispatch, so it completes when released; and
// because finished stripes keep their slots until consumed in order, no
// stripe a full width ahead of the consumer is ever produced.
func TestPipeStalledHeadOrdered(t *testing.T) {
	const width = 4
	const jobs = 3*width + 1
	var consumed atomic.Int64
	var finished atomic.Int64 // stripes other than the head whose work is done
	idle := make(chan struct{})
	var order []int
	p := &stripePipe{
		width: width,
		produce: func(sl *stripeSlot) (bool, error) {
			if ahead := sl.st - int(consumed.Load()); ahead >= width {
				t.Errorf("stripe %d produced %d ahead of the consumer (width %d)", sl.st, ahead, width)
			}
			return sl.st < jobs, nil
		},
		work: func(_ context.Context, sl *stripeSlot) error {
			if sl.st == 0 {
				<-idle
			} else if finished.Add(1) == width-1 {
				close(idle)
			}
			return nil
		},
		consume: func(sl *stripeSlot) error {
			order = append(order, sl.st)
			consumed.Add(1)
			return nil
		},
	}
	if err := runPipe(t, context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if len(order) != jobs {
		t.Fatalf("consumed %d of %d stripes", len(order), jobs)
	}
	for i, st := range order {
		if st != i {
			t.Fatalf("consumed out of order: %v", order)
		}
	}
}

// TestPipeStalledHeadUnordered is the same schedule in the write direction,
// where nothing is consumed in order: a stalled stripe 0 must not hold back
// the stripes behind it — every other stripe finishes while it is stalled —
// and still no more than width are ever being worked on.
func TestPipeStalledHeadUnordered(t *testing.T) {
	const width = 4
	const jobs = 10 * width
	var finished, working, maxWorking atomic.Int64
	rest := make(chan struct{})
	p := &stripePipe{
		width:   width,
		produce: firstN(jobs),
		work: func(_ context.Context, sl *stripeSlot) error {
			n := working.Add(1)
			for old := maxWorking.Load(); n > old && !maxWorking.CompareAndSwap(old, n); old = maxWorking.Load() {
			}
			defer working.Add(-1)
			if sl.st == 0 {
				<-rest
			} else if finished.Add(1) == jobs-1 {
				close(rest)
			}
			return nil
		},
	}
	if err := runPipe(t, context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if got := maxWorking.Load(); got > width {
		t.Errorf("%d stripes in flight at once, width %d", got, width)
	}
}

// TestPipeBoundedBuffers: a source that allocates a buffer only when its slot
// has none — the way PutStream's takes a scratch, and the payload buffer in
// it — allocates at most width of them over 10×width stripes, in both
// directions and inline.
func TestPipeBoundedBuffers(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		for _, ordered := range []bool{false, true} {
			jobs := 10 * width
			allocs := 0
			seen := map[*stripeSlot]bool{}
			p := &stripePipe{
				width: width,
				produce: func(sl *stripeSlot) (bool, error) {
					seen[sl] = true
					if sl.payload == nil {
						sl.payload = make([]byte, 8)
						allocs++
					}
					return sl.st < jobs, nil
				},
				work: func(context.Context, *stripeSlot) error { runtime.Gosched(); return nil },
			}
			emitted := 0
			if ordered {
				p.consume = func(*stripeSlot) error { emitted++; return nil }
			}
			if err := runPipe(t, context.Background(), p); err != nil {
				t.Fatal(err)
			}
			if allocs > width || len(seen) > width {
				t.Errorf("width=%d ordered=%v: %d buffers over %d slots for %d stripes", width, ordered, allocs, len(seen), jobs)
			}
			if ordered && emitted != jobs {
				t.Errorf("width=%d: consumed %d of %d stripes", width, emitted, jobs)
			}
		}
	}
}

// TestPipeFirstError: when stripe i fails — in produce, in work or in
// consume — every stripe before it has been consumed, none after it is, and
// run returns stripe i's own error even though the stripes in flight behind
// it die of the cancellation it caused. Inline and concurrent runs agree.
func TestPipeFirstError(t *testing.T) {
	const jobs, bad = 20, 7
	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		for _, stage := range []string{"produce", "work", "consume"} {
			var order []int
			p := &stripePipe{
				width: width,
				produce: func(sl *stripeSlot) (bool, error) {
					if stage == "produce" && sl.st == bad {
						return false, boom
					}
					return sl.st < jobs, nil
				},
				work: func(ctx context.Context, sl *stripeSlot) error {
					switch {
					case stage == "work" && sl.st == bad:
						return boom
					case sl.st > bad:
						<-ctx.Done() // only the failure of stripe bad ends these
						return ctx.Err()
					}
					return nil
				},
				consume: func(sl *stripeSlot) error {
					if stage == "consume" && sl.st == bad {
						return boom
					}
					order = append(order, sl.st)
					return nil
				},
			}
			if err := runPipe(t, context.Background(), p); err != boom {
				t.Errorf("width=%d %s: err = %v, want %v", width, stage, err, boom)
			}
			if want := fmt.Sprint(seq(bad)); fmt.Sprint(order) != want {
				t.Errorf("width=%d %s: consumed %v, want %v", width, stage, order, want)
			}
		}
	}

	// With nothing consumed in order there is no "before": the first failure
	// to happen is the one reported, not the cancellations that follow it.
	p := &stripePipe{
		width:   4,
		produce: firstN(jobs),
		work: func(ctx context.Context, sl *stripeSlot) error {
			if sl.st == bad {
				return boom
			}
			if sl.st > bad {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		},
	}
	if err := runPipe(t, context.Background(), p); err != boom {
		t.Errorf("unordered: err = %v, want %v", err, boom)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPipeCallerCancel: a caller that cancels between stripes gets ctx.Err()
// back even when no stripe failed because of it — never a short run
// reported as success.
func TestPipeCallerCancel(t *testing.T) {
	const jobs = 50
	for _, width := range []int{1, 4} {
		for _, ordered := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			var worked atomic.Int64
			p := &stripePipe{
				width:   width,
				produce: firstN(jobs),
				work: func(_ context.Context, sl *stripeSlot) error { // deaf to ctx
					worked.Add(1)
					if !ordered && sl.st == 2 {
						cancel()
					}
					if !ordered && sl.st > 2 {
						<-ctx.Done() // stripe 2 may be scheduled last; hold the rest for it
					}
					return nil
				},
			}
			if ordered {
				p.consume = func(sl *stripeSlot) error {
					if sl.st == 2 {
						cancel()
					}
					return nil
				}
			}
			err := runPipe(t, ctx, p)
			cancel()
			if err != context.Canceled {
				t.Errorf("width=%d ordered=%v: err = %v, want %v", width, ordered, err, context.Canceled)
			}
			if n := worked.Load(); n >= jobs {
				t.Errorf("width=%d ordered=%v: all %d stripes ran after the cancel", width, ordered, n)
			}
		}
	}
}

// goroutineID parses the running goroutine's ID from its stack header.
func goroutineID() string {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(fields[1]) // "goroutine 123 [running]:"
}

// TestPipeInlineAtWidthOne: at width 1 every step runs on the caller's own
// goroutine and none is started.
func TestPipeInlineAtWidthOne(t *testing.T) {
	caller := goroutineID()
	before := runtime.NumGoroutine()
	check := func(step string) {
		if id := goroutineID(); id != caller {
			t.Errorf("%s ran on goroutine %s, caller is %s", step, id, caller)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines during %s, %d before the run", n, step, before)
		}
	}
	p := &stripePipe{
		width:   1,
		produce: func(sl *stripeSlot) (bool, error) { check("produce"); return sl.st < 5, nil },
		work:    func(context.Context, *stripeSlot) error { check("work"); return nil },
		consume: func(*stripeSlot) error { check("consume"); return nil },
	}
	if err := p.run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPipeLeavesNoGoroutines: after a run that succeeds, one that fails and
// one that is cancelled, the goroutine count is back where it started.
func TestPipeLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for _, ordered := range []bool{false, true} {
		for _, scenario := range []string{"success", "error", "cancel"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				p := &stripePipe{
					width:   4,
					produce: firstN(40),
					work: func(ctx context.Context, sl *stripeSlot) error {
						switch {
						case sl.st == 9 && scenario == "error":
							return boom
						case sl.st == 9 && scenario == "cancel":
							cancel()
						}
						return ctx.Err()
					},
				}
				if ordered {
					p.consume = func(*stripeSlot) error { return nil }
				}
				err := p.run(ctx)
				want := map[string]error{"success": nil, "error": boom, "cancel": context.Canceled}[scenario]
				if err != want {
					t.Errorf("ordered=%v %s: err = %v, want %v", ordered, scenario, err, want)
				}
			}()
		}
	}
	wg.Wait()
	// The closer goroutine may still be returning when run does; give the
	// scheduler a moment before calling anything a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the runs, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
