package maid

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/core"
	"tornado/internal/device"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

func TestParkAll(t *testing.T) {
	s := newShelf(t, 4, 2)
	s.Write(0, []byte("k"), []byte("a"))
	s.Write(1, []byte("k"), []byte("b"))
	if s.OnlineCount() != 2 {
		t.Fatalf("OnlineCount = %d", s.OnlineCount())
	}
	s.ParkAll()
	if s.OnlineCount() != 0 {
		t.Errorf("OnlineCount after ParkAll = %d", s.OnlineCount())
	}
	for _, d := range s.Devices() {
		if d.State() != device.Standby {
			t.Errorf("device %d state %v", d.ID(), d.State())
		}
	}
	// Data must survive and reads must spin drives back up.
	if got, err := s.Read(0, []byte("k")); err != nil || string(got) != "a" {
		t.Errorf("Read after ParkAll: %q %v", got, err)
	}
}

func TestStoreBackendAvailability(t *testing.T) {
	s := newShelf(t, 4, 2)
	b := NewStoreBackend(s)
	if b.Nodes() != 4 {
		t.Errorf("Nodes = %d", b.Nodes())
	}
	if err := b.Write(context.Background(), 0, []byte("k"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.ParkAll()
	// Standby drive holding the block: available, and its medium reachable.
	if !b.Available(0, []byte("k")) {
		t.Error("standby block should be available")
	}
	if _, ok := b.MediaEpoch(0); !ok {
		t.Error("standby drive's medium epoch not reported")
	}
	// Standby drive without the block: unavailable.
	if b.Available(1, []byte("k")) {
		t.Error("missing block reported available")
	}
	// Dead drive: unavailable regardless.
	s.Devices()[0].Fail()
	if b.Available(0, []byte("k")) {
		t.Error("failed drive reported available")
	}
	if _, ok := b.MediaEpoch(0); ok {
		t.Error("failed drive's medium epoch reported")
	}
}

// TestStoreBackendReadInto: the shelf's read lands in the caller's buffer,
// spins the parked drive up on the way like Read does, and honours a dead
// context before touching the shelf.
func TestStoreBackendReadInto(t *testing.T) {
	s := newShelf(t, 4, 2)
	b := NewStoreBackend(s)
	ctx := context.Background()
	if err := b.Write(ctx, 0, []byte("k"), []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	s.ParkAll()
	dst := make([]byte, 0, 8)
	got, err := b.ReadInto(ctx, 0, []byte("k"), dst)
	if err != nil || string(got) != "xyz" || &got[0] != &dst[:1][0] {
		t.Fatalf("ReadInto = %q, %v; want the block, in dst", got, err)
	}
	if s.Devices()[0].State() != device.Online {
		t.Error("ReadInto left the drive parked")
	}
	if own, err := b.Read(ctx, 0, []byte("k")); err != nil || string(own) != "xyz" || &own[0] == &dst[:1][0] {
		t.Errorf("Read = %q, %v; want the block, in a slice of its own", own, err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := b.ReadInto(dead, 0, []byte("k"), dst); err != context.Canceled {
		t.Errorf("ReadInto under a cancelled context: %v", err)
	}
}

func TestStoreBackendCostAndDelete(t *testing.T) {
	s := newShelf(t, 4, 2)
	b := NewStoreBackend(s)
	b.Write(context.Background(), 0, []byte("k"), []byte("x"))
	if c := b.Cost(0); c >= 1 {
		t.Errorf("spinning cost = %v", c)
	}
	s.ParkAll()
	if c := b.Cost(0); c != 1 {
		t.Errorf("standby cost = %v", c)
	}
	s.Devices()[3].Fail()
	if !math.IsInf(b.Cost(3), 1) {
		t.Errorf("failed cost = %v", b.Cost(3))
	}
	if err := b.Delete(context.Background(), 0, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if b.Available(0, []byte("k")) {
		t.Error("block still available after Delete")
	}
}

// End-to-end: an archive over a MAID shelf serves objects with every drive
// parked, spinning up only what the guided plan needs.
func TestArchiveOverMAIDShelf(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(55, 1)))
	if err != nil {
		t.Fatal(err)
	}
	shelf, err := NewShelf(device.NewArray(g.Total), 24)
	if err != nil {
		t.Fatal(err)
	}
	store, err := archive.NewWithBackend(g, NewStoreBackend(shelf), archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("maid"), 500)
	if err := store.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	shelf.ParkAll()
	base := shelf.SpinUps()

	got, stats, err := store.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	// Guided retrieval from a fully parked shelf spins up ≈ the data-node
	// count, never the whole shelf.
	spins := shelf.SpinUps() - base
	if spins > int64(g.Data)+8 {
		t.Errorf("get spun up %d drives, want ≈%d", spins, g.Data)
	}
	t.Logf("get stats %+v, spin-ups %d", stats, spins)

	// Survive failures too.
	shelf.Devices()[2].Fail()
	shelf.Devices()[50].Fail()
	if got, _, err := store.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Errorf("get after failures: %v", err)
	}
}
