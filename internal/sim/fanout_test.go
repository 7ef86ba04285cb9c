package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForBlocksRunsEveryBlockOnce: every block of [0, n) runs exactly once,
// on a worker index below the worker count, whatever the two are.
func TestForBlocksRunsEveryBlockOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int64{0, 1, 5, 1000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				var badW atomic.Int32
				err := forBlocksCtx(context.Background(), workers, n, func(_ context.Context, w int, b int64) error {
					if w < 0 || w >= workers {
						badW.Add(1)
					}
					runs[b].Add(1)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if c := badW.Load(); c > 0 {
					t.Errorf("%d blocks ran on a worker index outside [0, %d)", c, workers)
				}
				for b := range runs {
					if c := runs[b].Load(); c != 1 {
						t.Errorf("block %d ran %d times", b, c)
					}
				}
			})
		}
	}
}

// TestForBlocksOneWorkerRunsOnTheCaller: at one worker every block runs on
// the calling goroutine — no goroutine is started — and the fan-out itself
// allocates nothing.
func TestForBlocksOneWorkerRunsOnTheCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var during []int
	err := forBlocksCtx(context.Background(), 1, 5, func(_ context.Context, w int, _ int64) error {
		during = append(during, runtime.NumGoroutine())
		if w != 0 {
			return fmt.Errorf("worker %d at one worker", w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range during {
		if g != before {
			t.Fatalf("goroutines inside fn: %v, %d before the call", during, before)
		}
	}

	var sum int64
	fn := func(_ context.Context, _ int, b int64) error { sum += b; return nil }
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() { _ = forBlocksCtx(ctx, 1, 64, fn) }); allocs != 0 {
		t.Errorf("forBlocksCtx at one worker: %v allocs per call, want 0", allocs)
	}
}

// TestForBlocksFirstError: the first error is what the fan-out returns, and
// no block starts once it has canceled the rest: at one worker none at all,
// at more at most one per other worker, already past its cancellation check
// (such a block sees a canceled context). A canceled caller gets ctx.Err()
// and no block runs.
func TestForBlocksFirstError(t *testing.T) {
	errBlock := errors.New("block failed")
	const n, failAt = 1000, 7
	for _, workers := range []int{1, 2, 3, 8} {
		var late, ran atomic.Int32
		err := forBlocksCtx(context.Background(), workers, n, func(ctx context.Context, _ int, b int64) error {
			ran.Add(1)
			if ctx.Err() != nil {
				late.Add(1)
			}
			if b == failAt {
				return errBlock
			}
			return nil
		})
		if err != errBlock {
			t.Errorf("workers=%d: returned %v, want the block's error", workers, err)
		}
		if workers == 1 && ran.Load() != failAt+1 {
			t.Errorf("workers=1: %d blocks ran, want %d", ran.Load(), failAt+1)
		}
		if l := int(late.Load()); l > workers-1 {
			t.Errorf("workers=%d: %d blocks started after the error canceled the rest", workers, l)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran.Store(0)
		err = forBlocksCtx(ctx, workers, n, func(context.Context, int, int64) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
			t.Errorf("workers=%d: canceled caller got %v after %d blocks", workers, err, ran.Load())
		}
	}
}

// TestForBlocksStopIsClean: a block that returns errStop ends the loop
// like an error — no block starts after it has canceled the rest, whose
// context names errStop as the cause — but the loop returns nil, and so
// does a caller whose blocks in flight return the cancellation.
func TestForBlocksStopIsClean(t *testing.T) {
	const n, stopAt = 1000, 7
	for _, workers := range []int{1, 2, 3, 8} {
		var late, ran atomic.Int32
		err := forBlocksCtx(context.Background(), workers, n, func(ctx context.Context, _ int, b int64) error {
			ran.Add(1)
			if ctx.Err() != nil {
				late.Add(1)
				if context.Cause(ctx) != errStop {
					return fmt.Errorf("canceled with cause %v", context.Cause(ctx))
				}
				return ctx.Err()
			}
			if b == stopAt {
				return errStop
			}
			return nil
		})
		if err != nil {
			t.Errorf("workers=%d: returned %v, want nil", workers, err)
		}
		if workers == 1 && ran.Load() != stopAt+1 {
			t.Errorf("workers=1: %d blocks ran, want %d", ran.Load(), stopAt+1)
		}
		if l := int(late.Load()); l > workers-1 {
			t.Errorf("workers=%d: %d blocks started after the stop", workers, l)
		}
	}
}
