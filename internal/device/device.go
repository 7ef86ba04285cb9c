// Package device simulates the individually-accessible storage devices of
// the paper's theoretical 96-drive system (§5.1) and its MAID discussion
// (§2.2): in-memory block devices with online/standby/offline/failed state,
// spin-up accounting for power-managed shelves, and failure injection for
// the archival store's fault-tolerance tests.
package device

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
)

// State is a device's availability state.
type State int

const (
	// Online devices serve reads and writes.
	Online State = iota
	// Standby devices are spun down (MAID); access requires PowerOn.
	Standby
	// Offline devices are temporarily unreachable; data is intact.
	Offline
	// Failed devices have lost their contents permanently.
	Failed
)

func (s State) String() string {
	switch s {
	case Online:
		return "online"
	case Standby:
		return "standby"
	case Offline:
		return "offline"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors returned by device accesses.
var (
	ErrUnavailable = errors.New("device: not online")
	ErrNotFound    = errors.New("device: block not found")
)

// Stats counts a device's activity.
type Stats struct {
	Reads, Writes int64
	BytesRead     int64
	BytesWritten  int64
	SpinUps       int64
}

// A device carves its frames' slots from slabs that double in size from
// minSlab up to maxSlab: a device holding a few frames carves little, and a
// full one loses under 0.4% of its slabs to the tails no frame fits. A frame
// larger than maxSlab gets a slot of its own.
const (
	minSlab      = 64 << 10
	slabDoubling = 4
	maxSlab      = minSlab << slabDoubling
)

// tailSlot bounds the prefix a zero-tailed frame is kept as: a frame whose
// bytes past its first tailSlot are all zero — a padding block's frame, its
// checksum ahead of a zero payload — is held as the prefix up to its last
// non-zero byte, and a read zero-fills the rest.
const tailSlot = 64

// frame is a stored frame: its stored bytes b — all n of them, or the prefix
// of a zero-tailed frame — and its length n. b is the whole slot.
type frame struct {
	b []byte
	n int
}

// Device is one simulated drive. All methods are safe for concurrent use.
//
// Frames live in reusable slots: Write copies a frame, or the prefix of a
// zero-tailed one, into a slot (in place when the key already holds a slot of
// that length), and Delete or a write needing another length puts the old
// slot on a free list keyed by length, where the next Write of that length
// finds it. The map takes a key to the index of its frame, so a write that
// changes the slot leaves the map alone, and its entries stay small: a map
// holding the frames themselves took twice as long to look up. Every read
// copies out under mu, so no slot is ever seen by a caller. The slots are
// the device's: its footprint stays at its high-water mark, across Fail and
// Replace too — they forget every frame but keep the slabs, which the
// replacement medium refills.
type Device struct {
	id int

	// state is written under mu and read without it, so State — the probe
	// retrieval planning makes of every node on every stripe — takes no lock.
	state atomic.Int32
	// epoch counts the times the medium lost frames (Fail, Replace, Lose),
	// written under mu and read without it: a store that wrote a block under
	// one epoch and finds it unchanged knows the medium still holds the block,
	// unless the store itself deleted it.
	epoch atomic.Uint64

	mu     sync.Mutex
	blocks map[string]int // key → its entry in frames
	frames []frame
	vacant []int            // entries of frames no key uses
	free   map[int][][]byte // released slots, by length
	slabs  [][]byte         // every slab carved, in carving order
	next   int              // slabs[next:] hold no slot since the last rewind
	slab   []byte           // the unused tail of the slab slots are carved from
	stats  Stats
}

// New returns an online, empty device.
func New(id int) *Device {
	return &Device{id: id, blocks: map[string]int{}} // the zero state is Online
}

// ID returns the device's index.
func (d *Device) ID() int { return d.id }

// State returns the current state.
func (d *Device) State() State { return State(d.state.Load()) }

// Epoch returns the medium's epoch: it changes whenever the device loses
// frames it was not asked to delete — Fail, Replace, Lose — and never
// otherwise (Delete leaves it alone). Load it after State: Replace bumps the
// epoch before it publishes Online, so a reader that saw the new drive Online
// also sees its new epoch.
func (d *Device) Epoch() uint64 { return d.epoch.Load() }

func (d *Device) setStateLocked(s State) { d.state.Store(int32(s)) }

// slotLocked returns a slot of n bytes: a released one of that length, the
// next n bytes of the current slab, or one of its own when n is larger than a
// slab may be. When the current slab runs out, the next slab already carved
// takes over (one too short for n is skipped until the next rewind); a new
// slab, twice the last up to maxSlab, is carved only when none is left.
func (d *Device) slotLocked(n int) []byte {
	if fl := d.free[n]; len(fl) > 0 {
		d.free[n] = fl[:len(fl)-1]
		return fl[len(fl)-1]
	}
	if n > maxSlab {
		return make([]byte, n)
	}
	for len(d.slab) < n {
		if d.next == len(d.slabs) {
			d.slabs = append(d.slabs, make([]byte, max(n, minSlab<<min(len(d.slabs), slabDoubling))))
		}
		d.slab = d.slabs[d.next]
		d.next++
	}
	b := d.slab[:n:n]
	d.slab = d.slab[n:]
	return b
}

// releaseLocked puts a slot that holds no frame any more on the free list;
// an empty slot holds no memory and is dropped.
func (d *Device) releaseLocked(b []byte) {
	if len(b) == 0 {
		return
	}
	if d.free == nil {
		d.free = map[int][][]byte{}
	}
	d.free[len(b)] = append(d.free[len(b)], b)
}

// zeros is what a frame's tail is compared with, a block at a time: the
// runtime's vectorised compare scans a 4 KiB tail about four times faster
// than a loop over its words.
var zeros [4096]byte

// stored returns how many of data's bytes a device keeps: all of them, or,
// when every byte past the first tailSlot is zero, those up to the last
// non-zero one. Random data pays one byte's test; only a frame that ends in
// zero has its tail scanned.
func stored(data []byte) int {
	n := len(data)
	if n <= tailSlot || data[n-1] != 0 {
		return n
	}
	for tail := data[tailSlot:]; len(tail) > 0; {
		k := min(len(tail), len(zeros))
		if !bytes.Equal(tail[:k], zeros[:k]) {
			return n
		}
		tail = tail[k:]
	}
	i := tailSlot
	for i > 0 && data[i-1] == 0 {
		i--
	}
	return i
}

// dropLocked forgets every frame — the device's media is gone, and the epoch
// moves on — but keeps the memory that held them: the map is cleared in place
// and the slab arena is rewound, so new frames refill the slabs from the
// first in write order. The free lists are emptied, or the rewind would hand
// their slots out twice.
func (d *Device) dropLocked() {
	d.epoch.Add(1)
	clear(d.free)
	clear(d.blocks)
	clear(d.frames)
	d.frames, d.vacant = d.frames[:0], d.vacant[:0]
	d.slab, d.next = nil, 0
}

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Read returns a copy of the named block in a slice the caller owns: it is
// ReadInto with no destination.
func (d *Device) Read(key []byte) ([]byte, error) { return d.ReadInto(key, nil) }

// ReadInto copies the named block into dst's capacity (appending to dst[:0],
// so a dst that is too small, or nil, is grown into a fresh slice) and
// returns the copy; the device keeps no reference to dst. The key is
// borrowed for the duration of the call only — the map lookup goes through
// m[string(k)], which the compiler keeps allocation-free, so hot read paths
// can build keys in a reused buffer and land blocks in a reused arena.
func (d *Device) ReadInto(key, dst []byte) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.State(); st != Online {
		return nil, fmt.Errorf("%w (device %d is %v)", ErrUnavailable, d.id, st)
	}
	i, ok := d.blocks[string(key)]
	if !ok {
		return nil, fmt.Errorf("%w (device %d, key %q)", ErrNotFound, d.id, key)
	}
	f := d.frames[i]
	d.stats.Reads++
	d.stats.BytesRead += int64(f.n)
	dst = append(slices.Grow(dst[:0], f.n), f.b...)
	return append(dst, make([]byte, f.n-len(f.b))...), nil
}

// Write stores a copy of data under key, in a slot of the device's own (of a
// zero-tailed frame, a copy of its prefix; see tailSlot). The key is copied
// (the map entry owns its own string) when it is new, so callers may reuse
// both buffers.
func (d *Device) Write(key []byte, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.State(); st != Online {
		return fmt.Errorf("%w (device %d is %v)", ErrUnavailable, d.id, st)
	}
	i, ok := d.blocks[string(key)]
	if !ok {
		if n := len(d.vacant); n > 0 {
			i, d.vacant = d.vacant[n-1], d.vacant[:n-1]
		} else {
			i, d.frames = len(d.frames), append(d.frames, frame{})
		}
		d.blocks[string(key)] = i
	}
	f := &d.frames[i]
	if size := stored(data); len(f.b) != size {
		d.releaseLocked(f.b)
		f.b = d.slotLocked(size)
	}
	copy(f.b, data)
	f.n = len(data)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(data))
	return nil
}

// Delete removes the named block; deleting a missing block is a no-op.
func (d *Device) Delete(key []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.State(); st != Online {
		return fmt.Errorf("%w (device %d is %v)", ErrUnavailable, d.id, st)
	}
	d.forgetLocked(key)
	return nil
}

// forgetLocked drops the named frame, if the device holds it.
func (d *Device) forgetLocked(key []byte) {
	if i, ok := d.blocks[string(key)]; ok {
		d.releaseLocked(d.frames[i].b)
		d.frames[i] = frame{}
		d.vacant = append(d.vacant, i)
		delete(d.blocks, string(key))
	}
}

// Lose destroys the named frame, as a bad sector would: the block is gone, in
// any state, and — unlike Delete, which is the owner's — the epoch moves on.
func (d *Device) Lose(key []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch.Add(1)
	d.forgetLocked(key)
}

// Holds reports whether the device is in one of the given states and holds
// key — the availability probe of a backend, answered under one lock.
func (d *Device) Holds(key []byte, states ...State) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !slices.Contains(states, d.State()) {
		return false
	}
	_, ok := d.blocks[string(key)]
	return ok
}

// Len returns the number of stored blocks.
func (d *Device) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}

// PowerOff spins an online device down to standby.
func (d *Device) PowerOff() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() == Online {
		d.setStateLocked(Standby)
	}
}

// PowerOn spins a standby device up, counting the spin-up.
func (d *Device) PowerOn() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() == Standby {
		d.setStateLocked(Online)
		d.stats.SpinUps++
	}
}

// SetOffline marks the device temporarily unreachable (data intact).
func (d *Device) SetOffline() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() != Failed {
		d.setStateLocked(Offline)
	}
}

// SetOnline returns an offline device to service.
func (d *Device) SetOnline() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.State(); st == Offline || st == Standby {
		d.setStateLocked(Online)
	}
}

// Fail destroys the device: contents are dropped (their memory is kept for
// the replacement) and the state becomes Failed until Replace.
func (d *Device) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.setStateLocked(Failed)
	d.dropLocked()
}

// Replace swaps in a fresh empty drive (Failed → Online), which refills the
// dead drive's slabs. The new epoch is published before Online (see Epoch).
func (d *Device) Replace() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropLocked()
	d.setStateLocked(Online)
}

// Array is an indexed shelf of devices.
type Array []*Device

// NewArray returns n fresh online devices with IDs 0..n-1.
func NewArray(n int) Array {
	a := make(Array, n)
	for i := range a {
		a[i] = New(i)
	}
	return a
}

// CountState returns how many devices are in the given state.
func (a Array) CountState(s State) int {
	n := 0
	for _, d := range a {
		if d.State() == s {
			n++
		}
	}
	return n
}

// FailRandom fails k distinct random devices and returns their IDs; k is
// clamped to [0, len(a)].
func (a Array) FailRandom(k int, rng *rand.Rand) []int {
	perm := rng.Perm(len(a))
	ids := perm[:max(0, min(k, len(a)))]
	for _, i := range ids {
		a[i].Fail()
	}
	return ids
}
