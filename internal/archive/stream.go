package archive

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
)

// DefaultStreamParallelism is the stripe pipeline width PutStream and
// GetStream use when no WithParallelism option is given: enough overlap to
// hide per-stripe backend latency without ballooning the bounded buffer
// pool.
const DefaultStreamParallelism = 4

// streamOptions tunes the streaming data path.
type streamOptions struct {
	parallelism int
}

// normalize replaces zero fields with the exported Default* values and
// clamps the pipeline width to the host (the internal/sim option idiom).
func (o streamOptions) normalize() streamOptions {
	if o.parallelism <= 0 {
		o.parallelism = DefaultStreamParallelism
	}
	if max := runtime.GOMAXPROCS(0); o.parallelism > max {
		o.parallelism = max
	}
	return o
}

// StreamOption configures PutStream/GetStream.
type StreamOption func(*streamOptions)

// WithParallelism sets how many stripes may be in flight concurrently.
// Peak memory is O(parallelism × stripe); 1 runs the stripe loop inline
// (no pipeline goroutines at all). Zero or negative means
// DefaultStreamParallelism; values above GOMAXPROCS are clamped.
func WithParallelism(n int) StreamOption {
	return func(o *streamOptions) { o.parallelism = n }
}

func applyStreamOptions(opts []StreamOption) streamOptions {
	var o streamOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o.normalize()
}

// PutStream ingests an object of unknown size from r, striping it as it
// streams: stripe payloads are read sequentially and encoded + written
// through the stripe pipeline, so peak memory is O(parallelism × stripe)
// regardless of object size. The transactional property is preserved — on
// error (including cancellation) the partial object is rolled back. It
// returns the number of payload bytes stored.
//
// This is the data path's write API of record; PutCtx is the same loop fed
// from a byte slice.
func (s *Store) PutStream(ctx context.Context, name string, r io.Reader, opts ...StreamOption) (int, error) {
	eof := false
	return s.putObject(ctx, name, applyStreamOptions(opts).parallelism, func(sl *stripeSlot) (bool, error) {
		if eof {
			return false, nil
		}
		if sl.sc == nil {
			sl.sc = s.scratch()
		}
		buf := sl.sc.payloadBuf(s)
		n, err := io.ReadFull(r, buf)
		eof = err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !eof {
			return false, fmt.Errorf("archive: stream %q: %w", name, err)
		}
		sl.payload = buf[:n]
		return n > 0 || sl.st == 0, nil // an empty object still stores one stripe
	})
}

// putObject is the write path: it reserves name, runs the stripes next
// yields (as sl.payload, in stripe order) through the pipeline, and commits
// the object with its availability record — or, on any error, rolls back
// every stripe that may have blocks written. It returns the object's size.
func (s *Store) putObject(ctx context.Context, name string, width int, next func(sl *stripeSlot) (bool, error)) (int, error) {
	e, err := s.reserve(name)
	if err != nil {
		return 0, err
	}
	// The epochs are read before the first write: a medium that loses frames
	// from here on has moved past the recorded epoch.
	rec := s.epochs()
	size, stripes := 0, 0
	p := stripePipe{
		width: width,
		produce: func(sl *stripeSlot) (bool, error) {
			ok, err := next(sl)
			if ok && err == nil {
				stripes++
				size += len(sl.payload)
			}
			return ok, err
		},
		work: func(ctx context.Context, sl *stripeSlot) error {
			if sl.sc == nil {
				sl.sc = s.scratch()
			}
			if sl.missed == nil {
				sl.missed = make([]bool, s.g.Total)
			}
			return s.putStripe(ctx, name, sl.st, sl.payload, sl.sc, sl.missed)
		},
	}
	err = p.run(ctx)
	s.releaseScratches(&p)
	if err != nil {
		s.discardBlocks(ctx, name, stripes)
		s.deleteObject(name)
		return 0, err
	}
	for i := range p.slots {
		for node, m := range p.slots[i].missed {
			rec.whole[node] = rec.whole[node] && !m
		}
	}
	s.mu.Lock()
	e.Size, e.Stripes, e.rec = size, stripes, rec
	s.mu.Unlock()
	return size, nil
}

// GetStream streams an object to w stripe by stripe, reconstructing
// stripes through the stripe pipeline and delivering them in order; peak
// memory is O(parallelism × stripe). It returns the bytes written and the
// aggregated retrieval stats.
//
// This is the data path's read API of record; GetCtx is the same loop
// collecting into a byte slice.
func (s *Store) GetStream(ctx context.Context, name string, w io.Writer, opts ...StreamOption) (int, GetStats, error) {
	obj, rec, err := s.lookup(name)
	if err != nil {
		return 0, GetStats{}, err
	}
	written := 0
	stats, err := s.getStripes(ctx, obj, rec, applyStreamOptions(opts).parallelism, nil, func(payload []byte) error {
		n, err := w.Write(payload)
		written += n
		if err != nil {
			return fmt.Errorf("archive: stream %q: %w", name, err)
		}
		return nil
	})
	return written, stats, err
}

// getStripes is the read path: it reconstructs obj's stripes (rec is its
// availability record) through the pipeline. With out nil, each stripe is
// decoded into its slot's payload buffer and handed to emit in stripe order,
// valid only during its emit call. Otherwise out is obj.Size bytes, each
// stripe is decoded straight into its own range of it, and emit is not called.
func (s *Store) getStripes(ctx context.Context, obj Object, rec *availRecord, width int, out []byte, emit func(payload []byte) error) (GetStats, error) {
	stripeCap := s.codec.Capacity()
	p := stripePipe{
		width:   min(width, obj.Stripes),
		produce: func(sl *stripeSlot) (bool, error) { return sl.st < obj.Stripes, nil },
		work: func(ctx context.Context, sl *stripeSlot) (err error) {
			if sl.sc == nil {
				sl.sc = s.scratch()
			}
			lo := sl.st * stripeCap
			n := min(obj.Size-lo, stripeCap)
			var buf []byte
			if out != nil {
				buf = out[lo : lo : lo+n]
			} else {
				buf = sl.sc.payloadBuf(s)[:0:n]
			}
			sl.payload, err = s.getStripe(ctx, obj.Name, sl.st, rec, buf, sl.sc, &sl.stats)
			return err
		},
	}
	if emit != nil {
		p.consume = func(sl *stripeSlot) error { return emit(sl.payload) }
	}
	err := p.run(ctx)
	var stats GetStats
	var touched []bool // the first scratch's nodes, grown into the union
	for i := range p.slots {
		sl := &p.slots[i]
		if sl.sc == nil {
			continue
		}
		stats.BlocksRead += sl.stats.BlocksRead
		stats.BlocksRepaired += sl.stats.BlocksRepaired
		stats.CorruptBlocks += sl.stats.CorruptBlocks
		stats.ReadRepairs += sl.stats.ReadRepairs
		stats.Retries += sl.stats.Retries
		stats.Repair.Add(sl.stats.Repair)
		if touched == nil {
			touched = sl.sc.touched
			continue
		}
		for node, read := range sl.sc.touched {
			touched[node] = touched[node] || read
		}
	}
	stats.DevicesAccessed = countTrue(touched)
	s.releaseScratches(&p)
	return stats, err
}

// releaseScratches hands the scratches a finished run's slots took back to
// the store's free list.
func (s *Store) releaseScratches(p *stripePipe) {
	for i := range p.slots {
		if sc := p.slots[i].sc; sc != nil {
			s.release(sc)
		}
	}
}

// errIsCtx reports whether err is a context cancellation/deadline error.
func errIsCtx(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
