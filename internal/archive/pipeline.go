package archive

import (
	"context"
	"sync"
)

// stripeSlot is one stripe's seat in a stripePipe. Everything a stripe needs
// in memory hangs off its slot and is reused by the slot's next stripe, so a
// run holds at most width scratches — and in them width payload buffers —
// however many stripes pass through.
type stripeSlot struct {
	st      int            // stripe index, set by the pipe
	payload []byte         // the stripe's bytes, in sc's payload buffer (a PutCtx's: in its data)
	sc      *stripeScratch // taken off the store's free list on first use, by produce or work
	stats   GetStats       // summed by work over every stripe the slot served
	health  StripeHealth   // a scrub's stripe: named by produce, filled in by work
	rec     *availRecord   // the availability record of a scrub's stripe's object
	missed  []bool         // a Put's nodes that failed a block write, over the slot's stripes
	err     error          // the stripe's failure, set by the pipe
}

// stripePipe is the one stripe loop of the data path: stripes 0, 1, 2, … go
// through produce → work → consume with at most width of them in flight.
//
//   - produce runs in stripe order on one goroutine and fills the slot it is
//     handed; ok == false ends the run. A stripe gets its slot — and with it
//     its buffers — before it is dispatched, so a stripe that is waited on
//     can never be starved of a buffer by stripes behind it.
//   - work runs on up to width goroutines, one stripe each.
//   - consume runs on the caller's goroutine in stripe order, and the slot
//     is held until it has. With no consume there is nothing to put in order:
//     a slot is free as soon as its work is done, so one slow stripe does not
//     hold back the stripes behind it.
//
// The first error — in stripe order when there is a consume, so every earlier
// stripe has been consumed and no later one is — cancels the context work
// sees, and run returns it once the stripes in flight have drained. Every
// goroutine run starts has exited when it returns. A width of 1 runs the
// same three steps inline, without goroutines or channels.
type stripePipe struct {
	width   int
	produce func(sl *stripeSlot) (ok bool, err error)
	work    func(ctx context.Context, sl *stripeSlot) error
	consume func(sl *stripeSlot) error // may be nil

	slots []stripeSlot // the run's slots, left for the caller to read stats from
}

func (p *stripePipe) run(ctx context.Context) error {
	p.slots = make([]stripeSlot, p.width)
	if p.width == 1 {
		for sl := &p.slots[0]; ; sl.st++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if ok, err := p.produce(sl); !ok || err != nil {
				return err
			}
			if err := p.work(ctx, sl); err != nil {
				return err
			}
			if p.consume != nil {
				if err := p.consume(sl); err != nil {
					return err
				}
			}
		}
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// free and done can each hold every slot, so sends on them never block.
	free := make(chan *stripeSlot, p.width)
	done := make(chan *stripeSlot, p.width)
	jobs := make(chan *stripeSlot)
	for i := range p.slots {
		free <- &p.slots[i]
	}
	ended := false // produce ran out of stripes: the run was not cut short
	var wg sync.WaitGroup
	wg.Add(1 + p.width)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for st := 0; ; st++ {
			var sl *stripeSlot
			select {
			case sl = <-free:
			case <-pctx.Done():
				return
			}
			sl.st = st
			ok, err := p.produce(sl)
			if err != nil {
				sl.err = err
				done <- sl // fails in its place in stripe order
				return
			}
			if !ok {
				ended = true
				return
			}
			select {
			case jobs <- sl:
			case <-pctx.Done():
				return
			}
		}
	}()
	for range p.width {
		go func() {
			defer wg.Done()
			for sl := range jobs {
				sl.err = p.work(pctx, sl)
				done <- sl
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	var first error
	finish := func(sl *stripeSlot) {
		if first == nil && sl.err == nil && p.consume != nil {
			sl.err = p.consume(sl)
		}
		if first == nil && sl.err != nil {
			first = sl.err
			cancel()
		}
		free <- sl
	}
	// Held slots are the only ones out, so the stripes waiting for their turn
	// span fewer than width indices and st%width seats them without collision.
	ring := make([]*stripeSlot, p.width)
	next := 0
	for sl := range done {
		if p.consume == nil {
			finish(sl)
			continue
		}
		ring[sl.st%p.width] = sl
		for ; ring[next%p.width] != nil; next++ {
			head := ring[next%p.width]
			ring[next%p.width] = nil
			finish(head)
		}
	}
	if first == nil && !ended {
		first = pctx.Err() // the caller cancelled between stripes
	}
	return first
}
