package archive

import (
	"context"
	"math"

	"tornado/internal/device"
)

// Backend abstracts the block storage under the archive: a plain device
// array, a power-managed MAID shelf that spins drives up on demand, or a
// fault-injecting wrapper over either (tornado/internal/chaos).
//
// The data-plane methods (Read, Write, Delete) are context-first: the
// store plumbs the caller's context from Put/Get/Scrub all the way down,
// so a backend backed by a network or a spin-up queue can honor deadlines
// and cancellation. In-memory backends may ignore ctx entirely — the store
// itself checks it between blocks and between retries, so cancellation is
// honored promptly either way.
//
// Error semantics: a backend that can fail transiently (network blip,
// injected fault) wraps those errors with ErrTransient; the store retries
// them twice, at once. A ctx error must be returned as (or wrapped
// around) ctx.Err() so the store can distinguish cancellation from damage.
// Any other error is treated as a missing block, to be reconstructed from
// parity.
//
// Key ownership: keys are []byte and are valid only for the duration of
// the call — the store builds them in a per-stripe buffer it reuses.
// Backends that retain a key (e.g. as a map key) must copy it; the
// m[string(k)] lookup/delete forms compile without allocating, so map-based
// backends stay allocation-free on the read path and pay one string copy
// only on writes, which are rare.
type Backend interface {
	// Nodes returns the device count (one per graph node).
	Nodes() int
	// Available reports whether node's copy of key can be retrieved at
	// all, possibly after a spin-up. Failed or unreachable devices are
	// unavailable.
	Available(node int, key []byte) bool
	// MediaEpoch is the probe that lets the store skip Available for blocks
	// it wrote itself, so it must be cheap (the device backends take no
	// lock) and it takes no key: ok is
	// false when Available would be false for every key (the device is not
	// Online, say), and epoch changes only when node's medium loses frames —
	// a failure, a replacement, a lost frame — never for the owner's Delete.
	// An implementation loads the device state before the epoch, and
	// publishes a new epoch before the state that makes the node reachable
	// again. A wrapper that fakes unavailability through Available must
	// answer ok == false wherever it does.
	MediaEpoch(node int) (epoch uint64, ok bool)
	// Read fetches a block, performing any power management needed. The
	// returned slice is owned by the caller: the backend must not reuse
	// or mutate its backing array after returning (unframeBlock hands out
	// payloads that alias it). For a backend that is also a ReaderInto,
	// Read(ctx, node, key) is ReadInto(ctx, node, key, nil).
	Read(ctx context.Context, node int, key []byte) ([]byte, error)
	// Write stores a block, performing any power management needed. The
	// backend must not retain data (or the key) after returning (callers
	// reuse their frame and key buffers).
	Write(ctx context.Context, node int, key []byte, data []byte) error
	// Delete removes a block; deleting a missing block is a no-op.
	Delete(ctx context.Context, node int, key []byte) error
	// Cost prices reading node for retrieval planning (e.g. spun-down
	// drives cost a spin-up). Unreachable nodes return +Inf.
	Cost(node int) float64
}

// ReaderInto is the read a Backend offers when it can put a block where the
// caller wants it. The store reads through it when the backend has it — every
// backend in this repository does — and through Read when it does not.
//
// ReadInto fetches the block Read would, appended to dst[:0]. dst is the
// caller's, before and after the call: the backend writes the block into its
// capacity and keeps no reference to it. When the block fits, the result
// aliases dst, so it is good only until the caller next writes to dst — the
// store hands each node of a stripe its own slot of a per-scratch arena and
// reuses the arena for the next stripe, and whatever must outlive that
// (anything returned to a caller, anything retained) is copied out first.
// When the block does not fit, or dst is nil, the result is a fresh slice
// the caller owns, exactly as Read returns. On error the result is not
// used, and dst may have been written to.
type ReaderInto interface {
	ReadInto(ctx context.Context, node int, key []byte, dst []byte) ([]byte, error)
}

// ReaderIntoOf resolves the read function of b: b itself when it is a
// ReaderInto, otherwise an adapter over b.Read that ignores dst and returns
// Read's caller-owned slice. The store calls it once, in NewWithBackend; a
// Backend that wraps another resolves its inner backend the same way.
func ReaderIntoOf(b Backend) ReaderInto {
	if r, ok := b.(ReaderInto); ok {
		return r
	}
	return readAdapter{b}
}

type readAdapter struct{ Backend }

func (a readAdapter) ReadInto(ctx context.Context, node int, key []byte, _ []byte) ([]byte, error) {
	return a.Read(ctx, node, key)
}

// arrayBackend serves an always-on device array.
type arrayBackend struct {
	devs device.Array
}

// NewArrayBackend wraps a plain device array as a Backend.
func NewArrayBackend(devs device.Array) Backend { return arrayBackend{devs: devs} }

func (a arrayBackend) Nodes() int { return len(a.devs) }

func (a arrayBackend) Available(node int, key []byte) bool {
	return a.devs[node].Holds(key, device.Online)
}

func (a arrayBackend) MediaEpoch(node int) (uint64, bool) {
	d := a.devs[node]
	if d.State() != device.Online {
		return 0, false
	}
	return d.Epoch(), true
}

func (a arrayBackend) Read(_ context.Context, node int, key []byte) ([]byte, error) {
	return a.devs[node].ReadInto(key, nil)
}

func (a arrayBackend) ReadInto(_ context.Context, node int, key []byte, dst []byte) ([]byte, error) {
	return a.devs[node].ReadInto(key, dst)
}

func (a arrayBackend) Write(_ context.Context, node int, key []byte, data []byte) error {
	return a.devs[node].Write(key, data)
}

func (a arrayBackend) Delete(_ context.Context, node int, key []byte) error {
	return a.devs[node].Delete(key)
}

func (a arrayBackend) Cost(node int) float64 {
	if a.devs[node].State() != device.Online {
		return math.Inf(1)
	}
	return 1
}
