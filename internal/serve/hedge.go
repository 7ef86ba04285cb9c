package serve

import (
	"context"
	"errors"
	"time"

	"tornado/internal/archive"
)

// pickPrimary selects the replica with the least repair pressure — the one
// whose reads are currently paying the least amplification for damage —
// rotating by stripe index among replicas tied at the minimum so healthy
// replicas still share steady-state load.
func (s *Service) pickPrimary(st int) int {
	minP := s.stores[0].RepairPressure()
	ties := 1
	for _, store := range s.stores[1:] {
		switch p := store.RepairPressure(); {
		case p < minP:
			minP, ties = p, 1
		case p == minP:
			ties++
		}
	}
	pick := st % ties
	for i, store := range s.stores {
		if store.RepairPressure() == minP {
			if pick == 0 {
				return i
			}
			pick--
		}
	}
	return st % len(s.stores) // pressure moved underneath us; any replica works
}

// readStripeHedged reads one stripe, racing replicas when the first is
// slow: the primary (the lowest-repair-pressure replica, rotated by stripe
// index among equals) gets HedgeDelay to answer; then the next replica is
// launched, and so on. The first success wins and every other in-flight read is
// cancelled. Errors only surface once all replicas have failed, so a
// degraded or unrecoverable replica is masked by any healthy one.
//
// The primary decodes into dst (archive.Store.ReadStripeInto), every hedge
// into a slice of its own. Only the winner's buffer comes back; a loser may
// still be writing to its buffer when the call returns, so dst is dropped,
// never reused, unless the primary wins.
func (s *Service) readStripeHedged(ctx context.Context, k string, st int, dst []byte) ([]byte, archive.GetStats, error) {
	if len(s.stores) == 1 || s.cfg.HedgeDelay < 0 {
		return s.stores[0].ReadStripeInto(ctx, k, st, dst)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // losers are cancelled the moment a winner returns

	type result struct {
		payload []byte
		stats   archive.GetStats
		err     error
		replica int
	}
	// Buffered to the replica count: a losing goroutine can always deliver
	// its (cancelled) result and exit — no goroutine outlives the call by
	// more than its own cancelled read.
	results := make(chan result, len(s.stores))
	launch := func(i int, dst []byte) {
		go func() {
			p, stats, err := s.stores[i].ReadStripeInto(hctx, k, st, dst)
			results <- result{p, stats, err, i}
		}()
	}

	primary := s.pickPrimary(st)
	launched := 1
	launch(primary, dst)
	timer := time.NewTimer(s.cfg.HedgeDelay)
	defer timer.Stop()

	var firstErr error
	failed := 0
	for {
		select {
		case r := <-results:
			if r.err == nil {
				if r.replica != primary {
					s.mHedgeWins.Inc()
				}
				return r.payload, r.stats, nil
			}
			if firstErr == nil && !errIsCtx(r.err) {
				firstErr = r.err
			}
			failed++
			if failed == len(s.stores) {
				if firstErr == nil {
					firstErr = r.err
				}
				return nil, archive.GetStats{}, firstErr
			}
			if launched < len(s.stores) {
				// A failure is a stronger signal than a timeout: hedge now.
				s.mHedges.Inc()
				launch((primary+launched)%len(s.stores), nil)
				launched++
			}
		case <-timer.C:
			if launched < len(s.stores) {
				s.mHedges.Inc()
				launch((primary+launched)%len(s.stores), nil)
				launched++
				timer.Reset(s.cfg.HedgeDelay)
			}
		case <-ctx.Done():
			return nil, archive.GetStats{}, ctx.Err()
		}
	}
}

func errIsCtx(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
