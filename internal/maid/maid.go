// Package maid models a massive array of idle disks (paper §2.2, §5.2): a
// shelf of simulated devices of which at most a fixed number may spin at
// once. Reads go through the shelf, which spins drives up on demand and
// parks the least-recently-used ones to stay inside the power budget. The
// spin-up counters quantify how much a guided retrieval plan (package
// retrieval) saves over naive whole-stripe reads — the optimization the
// paper argues makes Tornado-coded MAID storage power efficient.
package maid

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tornado/internal/device"
)

// ErrBudget is returned when a request needs more simultaneously-spinning
// drives than the shelf allows.
var ErrBudget = errors.New("maid: request exceeds the shelf power budget")

// Shelf is a power-managed device array.
type Shelf struct {
	mu      sync.Mutex
	devices device.Array
	maxOn   int
	lru     []int // device IDs currently online, least recently used first
}

// NewShelf wraps devices in a shelf allowing at most maxOn simultaneously
// spinning drives. All drives start spun down.
func NewShelf(devices device.Array, maxOn int) (*Shelf, error) {
	if maxOn < 1 || maxOn > len(devices) {
		return nil, fmt.Errorf("maid: power budget %d out of range for %d devices", maxOn, len(devices))
	}
	s := &Shelf{devices: devices, maxOn: maxOn}
	for _, d := range devices {
		d.PowerOff()
	}
	return s, nil
}

// Devices returns the underlying array (for failure injection in tests and
// experiments).
func (s *Shelf) Devices() device.Array { return s.devices }

// Budget returns the maximum number of simultaneously spinning drives.
func (s *Shelf) Budget() int { return s.maxOn }

// OnlineCount returns how many drives are currently spinning.
func (s *Shelf) OnlineCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lru)
}

// SpinUps returns the total spin-ups across the shelf.
func (s *Shelf) SpinUps() int64 {
	var n int64
	for _, d := range s.devices {
		n += d.Stats().SpinUps
	}
	return n
}

// ParkAll spins every drive down (e.g. after a bulk load).
func (s *Shelf) ParkAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.devices {
		d.PowerOff()
	}
	s.lru = s.lru[:0]
}

// EnsureOn spins up the given devices, parking LRU drives as needed. It
// fails with ErrBudget if len(ids) exceeds the budget; failed or offline
// devices are skipped (their data is unreachable regardless of power).
func (s *Shelf) EnsureOn(ids []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	active := 0
	for _, id := range ids {
		if st := s.devices[id].State(); st == device.Online || st == device.Standby {
			active++
		}
	}
	if active > s.maxOn {
		return fmt.Errorf("%w: need %d of %d", ErrBudget, active, s.maxOn)
	}
	for _, id := range ids {
		s.touchLocked(id)
	}
	return nil
}

// touchLocked marks id most-recently-used, spinning it up and evicting the
// LRU drive when over budget. Caller holds s.mu.
func (s *Shelf) touchLocked(id int) {
	d := s.devices[id]
	switch d.State() {
	case device.Online:
		s.promoteLocked(id)
		return
	case device.Standby:
		// Evict before spinning up so the budget is never exceeded.
		for len(s.lru) >= s.maxOn {
			victim := s.lru[0]
			s.lru = s.lru[1:]
			s.devices[victim].PowerOff()
		}
		d.PowerOn()
		s.lru = append(s.lru, id)
	default:
		// Failed/offline drives cannot spin.
	}
}

func (s *Shelf) promoteLocked(id int) {
	for i, v := range s.lru {
		if v == id {
			s.lru = append(append(s.lru[:i:i], s.lru[i+1:]...), id)
			return
		}
	}
	// Online but untracked (e.g. replaced device): track it, evicting if
	// needed.
	for len(s.lru) >= s.maxOn {
		victim := s.lru[0]
		s.lru = s.lru[1:]
		s.devices[victim].PowerOff()
	}
	s.lru = append(s.lru, id)
}

// Read fetches a block from a device, spinning it up if necessary, into a
// slice the caller owns.
func (s *Shelf) Read(id int, key []byte) ([]byte, error) { return s.ReadInto(id, key, nil) }

// ReadInto fetches a block from a device into dst (device.ReadInto), spinning
// the device up if necessary. The key is borrowed for the duration of the call
// (device lookups copy nothing).
func (s *Shelf) ReadInto(id int, key, dst []byte) ([]byte, error) {
	s.mu.Lock()
	s.touchLocked(id)
	s.mu.Unlock()
	return s.devices[id].ReadInto(key, dst)
}

// Write stores a block on a device, spinning it up if necessary.
func (s *Shelf) Write(id int, key []byte, data []byte) error {
	s.mu.Lock()
	s.touchLocked(id)
	s.mu.Unlock()
	return s.devices[id].Write(key, data)
}

// CostFunc returns a retrieval cost function for the shelf's current power
// state: already-spinning drives are cheap (epsilon), standby drives cost a
// spin-up (1), failed and offline drives are forbidden (+Inf is expressed
// by retrieval's convention).
func (s *Shelf) CostFunc() func(id int) float64 {
	return func(id int) float64 {
		switch s.devices[id].State() {
		case device.Online:
			return 0.01
		case device.Standby:
			return 1
		default:
			return math.Inf(1)
		}
	}
}
