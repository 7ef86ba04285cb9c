package maid

import (
	"context"

	"tornado/internal/archive"
	"tornado/internal/device"
)

// StoreBackend adapts a Shelf to the archive's storage interface: blocks
// on spun-down drives are considered available (the shelf spins them up on
// demand) and retrieval planning sees spin-up costs, so guided reads favor
// already-spinning drives.
type StoreBackend struct {
	shelf *Shelf
}

var (
	_ archive.Backend    = StoreBackend{}
	_ archive.ReaderInto = StoreBackend{}
)

// NewStoreBackend wraps shelf for use with archive.NewWithBackend.
func NewStoreBackend(shelf *Shelf) StoreBackend { return StoreBackend{shelf: shelf} }

// Nodes returns the shelf's device count.
func (b StoreBackend) Nodes() int { return len(b.shelf.devices) }

// Available reports whether node's copy of key survives somewhere the
// shelf can reach: standby drives count (a spin-up away); failed and
// offline drives do not.
func (b StoreBackend) Available(node int, key []byte) bool {
	return b.shelf.devices[node].Holds(key, device.Online, device.Standby)
}

// MediaEpoch reports the device's medium epoch while the shelf can reach it
// (online or standby), as Available does.
func (b StoreBackend) MediaEpoch(node int) (uint64, bool) {
	d := b.shelf.devices[node]
	if st := d.State(); st != device.Online && st != device.Standby {
		return 0, false
	}
	return d.Epoch(), true
}

// Read fetches a block through the shelf into a slice the caller owns.
func (b StoreBackend) Read(ctx context.Context, node int, key []byte) ([]byte, error) {
	return b.ReadInto(ctx, node, key, nil)
}

// ReadInto fetches a block through the shelf into dst (archive.ReaderInto),
// spinning the drive up if needed. The simulated shelf spins up
// synchronously, so ctx is only checked on entry; a real shelf would wait on
// the spin-up queue under ctx.
func (b StoreBackend) ReadInto(ctx context.Context, node int, key []byte, dst []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.shelf.ReadInto(node, key, dst)
}

// Write stores a block through the shelf, spinning the drive up if needed.
func (b StoreBackend) Write(ctx context.Context, node int, key []byte, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return b.shelf.Write(node, key, data)
}

// Delete removes a block, spinning the drive up if needed.
func (b StoreBackend) Delete(_ context.Context, node int, key []byte) error {
	b.shelf.mu.Lock()
	b.shelf.touchLocked(node)
	b.shelf.mu.Unlock()
	return b.shelf.devices[node].Delete(key)
}

// Cost prices a read by power state: spinning drives are nearly free,
// standby drives cost a spin-up, dead drives are unreachable.
func (b StoreBackend) Cost(node int) float64 {
	return b.shelf.CostFunc()(node)
}
