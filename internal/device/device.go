// Package device simulates the individually-accessible storage devices of
// the paper's theoretical 96-drive system (§5.1) and its MAID discussion
// (§2.2): in-memory block devices with online/standby/offline/failed state,
// spin-up accounting for power-managed shelves, and failure injection for
// the archival store's fault-tolerance tests.
package device

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
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

// Device is one simulated drive. All methods are safe for concurrent use.
type Device struct {
	id int

	mu     sync.Mutex
	state  State
	blocks map[string][]byte
	stats  Stats
}

// New returns an online, empty device.
func New(id int) *Device {
	return &Device{id: id, state: Online, blocks: map[string][]byte{}}
}

// ID returns the device's index.
func (d *Device) ID() int { return d.id }

// State returns the current state.
func (d *Device) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
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
	if d.state != Online {
		return nil, fmt.Errorf("%w (device %d is %v)", ErrUnavailable, d.id, d.state)
	}
	b, ok := d.blocks[string(key)]
	if !ok {
		return nil, fmt.Errorf("%w (device %d, key %q)", ErrNotFound, d.id, key)
	}
	d.stats.Reads++
	d.stats.BytesRead += int64(len(b))
	return append(dst[:0], b...), nil
}

// Write stores a copy of data under key. The key is copied (the map entry
// owns its own string), so callers may reuse the buffer.
func (d *Device) Write(key []byte, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Online {
		return fmt.Errorf("%w (device %d is %v)", ErrUnavailable, d.id, d.state)
	}
	d.blocks[string(key)] = append([]byte(nil), data...)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(data))
	return nil
}

// Delete removes the named block; deleting a missing block is a no-op.
func (d *Device) Delete(key []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Online {
		return fmt.Errorf("%w (device %d is %v)", ErrUnavailable, d.id, d.state)
	}
	delete(d.blocks, string(key))
	return nil
}

// Holds reports whether the device is in one of the given states and holds
// key — the availability probe of a backend, answered under one lock.
func (d *Device) Holds(key []byte, states ...State) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !slices.Contains(states, d.state) {
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
	if d.state == Online {
		d.state = Standby
	}
}

// PowerOn spins a standby device up, counting the spin-up.
func (d *Device) PowerOn() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Standby {
		d.state = Online
		d.stats.SpinUps++
	}
}

// SetOffline marks the device temporarily unreachable (data intact).
func (d *Device) SetOffline() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Failed {
		d.state = Offline
	}
}

// SetOnline returns an offline device to service.
func (d *Device) SetOnline() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Offline || d.state == Standby {
		d.state = Online
	}
}

// Fail destroys the device: contents are dropped and the state becomes
// Failed until Replace.
func (d *Device) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = Failed
	d.blocks = map[string][]byte{}
}

// Replace swaps in a fresh empty drive (Failed → Online).
func (d *Device) Replace() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = Online
	d.blocks = map[string][]byte{}
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

// FailRandom fails k distinct random devices and returns their IDs.
func (a Array) FailRandom(k int, rng *rand.Rand) []int {
	if k > len(a) {
		k = len(a)
	}
	perm := rng.Perm(len(a))
	ids := perm[:k]
	for _, i := range ids {
		a[i].Fail()
	}
	return ids
}
