package archive

import (
	"context"
	"fmt"

	"tornado/internal/repairbw"
)

// Stat returns an object's metadata.
func (s *Store) Stat(name string) (Object, error) {
	obj, _, err := s.lookup(name)
	return obj, err
}

// lookup is Stat with the object's availability record (nil for a shell).
func (s *Store) lookup(name string) (Object, *availRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[name]
	if !ok || !e.committed() {
		return Object{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e.Object, e.rec, nil
}

// StripeLayout describes how objects are striped for block-level access.
type StripeLayout struct {
	BlockSize      int
	StripeCapacity int // payload bytes per stripe
	NodesPerStripe int // blocks per stripe (one per graph node)
	DataNodes      int
}

// FrameSize is the on-device (and on-the-wire accounting) size of one framed
// block under this layout: block size plus checksum framing.
func (l StripeLayout) FrameSize() int { return l.BlockSize + frameOverhead }

// Layout returns the store's striping parameters.
func (s *Store) Layout() StripeLayout {
	return StripeLayout{
		BlockSize:      s.cfg.BlockSize,
		StripeCapacity: s.codec.Capacity(),
		NodesPerStripe: s.g.Total,
		DataNodes:      s.g.Data,
	}
}

// ReadBlockCtx returns one checksum-verified block of an object's stripe —
// the block-level interface the federated stewarding system uses to
// exchange blocks between sites (§5.3). The block's frame is read into dst
// under the ReaderInto contract and the block aliases it: it lies in dst's
// capacity when the frame (FrameSize bytes) fits, and otherwise — a nil or
// smaller dst, a backend with Read alone — in a fresh slice, the caller's to
// keep. The store keeps no reference to either. Corrupt blocks report
// ErrNotFound (to a remote peer, a rotted block and a missing block are the
// same). Cancellation reaches the backend read and its retries.
func (s *Store) ReadBlockCtx(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error) {
	obj, rec, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if stripe < 0 || stripe >= obj.Stripes || node < 0 || node >= s.g.Total {
		return nil, fmt.Errorf("%w: %q stripe %d node %d", ErrNotFound, name, stripe, node)
	}
	// A pooled stripe scratch lends its key buffer. A repair pass keeps the
	// pool warm; a cold call (an idle server, -race) builds a whole scratch.
	sc := s.scratch()
	defer s.release(sc)
	sc.keys.stripe(name, stripe)
	if !s.available(rec.live(), node, &sc.keys) {
		return nil, fmt.Errorf("%w: %q stripe %d node %d", ErrNotFound, name, stripe, node)
	}
	framed, err := s.readFramed(ctx, node, sc.keys.key(node), dst, nil)
	if err != nil {
		if errIsCtx(err) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %q stripe %d node %d", ErrNotFound, name, stripe, node)
	}
	// Block-level reads exist only for the federated exchange, so the whole
	// frame is federation repair traffic.
	s.meter.Record(repairbw.Federation, repairbw.CostReport{BlocksRead: 1, BytesRead: int64(len(framed))})
	// The payload crosses an ownership boundary (a donor's dst, HTTP response
	// body, peer exchange buffers): it aliases the frame read above, which
	// lies in the caller's dst or in a slice nothing else refers to.
	b, ok := unframeBlock(framed)
	if !ok {
		s.noteCorrupt(node)
		return nil, fmt.Errorf("%w: %q stripe %d node %d (checksum)", ErrNotFound, name, stripe, node)
	}
	return b, nil
}

// WriteBlockCtx stores one block of an object's stripe, framed with its
// checksum. It is the restore path of the federated exchange: a recovered
// block is written back to its home device. Cancellation reaches the
// backend write and its retries.
func (s *Store) WriteBlockCtx(ctx context.Context, name string, stripe, node int, payload []byte) error {
	obj, err := s.Stat(name)
	if err != nil {
		return err
	}
	if stripe < 0 || stripe >= obj.Stripes || node < 0 || node >= s.g.Total {
		return fmt.Errorf("archive: block out of range: %q stripe %d node %d", name, stripe, node)
	}
	if len(payload) != s.cfg.BlockSize {
		return fmt.Errorf("archive: block size %d, want %d", len(payload), s.cfg.BlockSize)
	}
	sc := s.scratch() // for its key and frame buffers
	defer s.release(sc)
	sc.keys.stripe(name, stripe)
	if sc.frameBuf, err = s.writeFramedBuf(ctx, node, sc.keys.key(node), payload, sc.frameBuf); err != nil {
		return err
	}
	s.meter.Record(repairbw.Federation, repairbw.CostReport{BlocksWritten: 1, BytesWritten: s.frameSize()})
	return nil
}

// PutShell registers an object's metadata without writing any blocks —
// used when a replica site receives blocks out of band (federated
// replication streams blocks, not whole objects). The stripe count must be
// the one a Put of size bytes records, max(1, ⌈size / StripeCapacity⌉): the
// read path sizes every stripe's payload from the two.
func (s *Store) PutShell(name string, size, stripes int) error {
	stripeCap := s.codec.Capacity()
	want := size / stripeCap // rounded up below; size+stripeCap-1 could overflow
	if size%stripeCap != 0 || size == 0 {
		want++
	}
	if size < 0 || stripes != want {
		return fmt.Errorf("archive: invalid shell %q (size %d, stripes %d)", name, size, stripes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	s.objects[name] = &entry{Object: Object{Name: name, Size: size, Stripes: stripes}}
	return nil
}
