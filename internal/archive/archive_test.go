package archive

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/graph"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

func testStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, device.NewArray(g.Total), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func payload(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

func TestNewValidation(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, device.NewArray(5), Config{}); err == nil {
		t.Error("device count mismatch accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore(t, Config{BlockSize: 64})
	data := payload(1000, 1)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	got, stats, err := s.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	if stats.DevicesAccessed == 0 || stats.BlocksRead == 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Guided retrieval with everything healthy reads only data blocks.
	if stats.DevicesAccessed > s.Graph().Data {
		t.Errorf("accessed %d devices, guided retrieval should need <= %d", stats.DevicesAccessed, s.Graph().Data)
	}
}

func TestPutMultiStripe(t *testing.T) {
	s := testStore(t, Config{BlockSize: 16}) // capacity 768/stripe
	data := payload(3000, 2)                 // 4 stripes
	if err := s.PutCtx(ctx, "big", data); err != nil {
		t.Fatal(err)
	}
	objs := s.List()
	if len(objs) != 1 || objs[0].Stripes != 4 || objs[0].Size != 3000 {
		t.Fatalf("List = %+v", objs)
	}
	got, _, err := s.GetCtx(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("multi-stripe round trip mismatch")
	}
}

func TestPutEmptyObject(t *testing.T) {
	s := testStore(t, Config{BlockSize: 16})
	if err := s.PutCtx(ctx, "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.GetCtx(ctx, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d bytes", len(got))
	}
}

func TestPutDuplicate(t *testing.T) {
	s := testStore(t, Config{})
	if err := s.PutCtx(ctx, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCtx(ctx, "a", []byte("y")); !errors.Is(err, ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
}

func TestGetMissing(t *testing.T) {
	s := testStore(t, Config{})
	if _, _, err := s.GetCtx(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestGetSurvivesDeviceFailures(t *testing.T) {
	s := testStore(t, Config{BlockSize: 32})
	data := payload(900, 3)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	// Fail 4 random devices — a screened tornado graph tolerates small
	// losses overwhelmingly often; retry seeds if the draw is unlucky.
	s.Devices().FailRandom(4, rand.New(rand.NewPCG(4, 4)))
	got, stats, err := s.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatalf("Get after failures: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data corrupted by reconstruction")
	}
	t.Logf("get stats after 4 failures: %+v", stats)
}

func TestGetReportsDataLoss(t *testing.T) {
	s := testStore(t, Config{BlockSize: 32})
	if err := s.PutCtx(ctx, "obj", payload(100, 5)); err != nil {
		t.Fatal(err)
	}
	// Fail everything: clearly unrecoverable.
	for _, d := range s.Devices() {
		d.Fail()
	}
	if _, _, err := s.GetCtx(ctx, "obj"); !errors.Is(err, ErrDataLoss) {
		t.Errorf("err = %v, want ErrDataLoss", err)
	}
}

func TestDelete(t *testing.T) {
	s := testStore(t, Config{BlockSize: 32})
	if err := s.PutCtx(ctx, "obj", payload(100, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCtx(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	if len(s.List()) != 0 {
		t.Error("object still listed")
	}
	if _, _, err := s.GetCtx(ctx, "obj"); !errors.Is(err, ErrNotFound) {
		t.Error("object still retrievable")
	}
	if err := s.DeleteCtx(context.Background(), "obj"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	// Devices must no longer hold blocks.
	for _, d := range s.Devices() {
		if d.Len() != 0 {
			t.Fatalf("device %d still holds %d blocks", d.ID(), d.Len())
		}
	}
}

func TestScrubHealthy(t *testing.T) {
	s := testStore(t, Config{BlockSize: 32, FirstFailure: 5})
	if err := s.PutCtx(ctx, "a", payload(100, 8)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stripes) != 1 || rep.Unrecoverable != 0 || rep.AtRisk != 0 {
		t.Fatalf("report = %+v", rep)
	}
	h := rep.Stripes[0]
	if !h.Recoverable || len(h.Missing) != 0 || h.Margin != 5 {
		t.Errorf("health = %+v", h)
	}
}

func TestScrubRepairsAfterReplacement(t *testing.T) {
	s := testStore(t, Config{BlockSize: 32, FirstFailure: 5})
	data := payload(600, 9)
	if err := s.PutCtx(ctx, "a", data); err != nil {
		t.Fatal(err)
	}
	// A drive dies and is replaced with a blank one.
	s.Devices()[10].Fail()
	s.Devices()[10].Replace()

	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired == 0 {
		t.Fatal("scrub repaired nothing")
	}
	// After repair the stripe is whole again: a fresh scrub sees nothing
	// missing.
	rep2, err := s.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rep2.Stripes {
		if len(h.Missing) != 0 {
			t.Errorf("stripe %+v still missing blocks after repair", h)
		}
	}
	got, _, err := s.GetCtx(ctx, "a")
	if err != nil || !bytes.Equal(got, data) {
		t.Error("object damaged by scrub")
	}
}

func TestScrubMarginCountsRisk(t *testing.T) {
	s := testStore(t, Config{BlockSize: 32, FirstFailure: 5})
	if err := s.PutCtx(ctx, "a", payload(100, 10)); err != nil {
		t.Fatal(err)
	}
	// Take 5 devices down (offline, not failed): margin hits 0 → at risk,
	// assuming the stripe is still recoverable.
	for i := 0; i < 5; i++ {
		s.Devices()[i].SetOffline()
	}
	rep, err := s.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecoverable == 0 && rep.AtRisk == 0 {
		t.Errorf("5 missing with first-failure 5: report = %+v", rep)
	}
}

func TestScrubReportsUnrecoverable(t *testing.T) {
	s := testStore(t, Config{BlockSize: 32})
	if err := s.PutCtx(ctx, "a", payload(100, 11)); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Devices() {
		d.Fail()
	}
	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecoverable != 1 {
		t.Errorf("report = %+v", rep)
	}
}

// Sanity: a store built over a mirrored graph loses data exactly when a
// pair dies — the archive semantics mirror the analysis.
func TestArchiveOnMirroredGraph(t *testing.T) {
	b := graph.NewBuilder(4)
	r := b.AddLevel(0, 4, 4)
	g := b.Graph()
	for i := 0; i < 4; i++ {
		g.SetNeighbors(r+i, []int{i})
	}
	s, err := New(g, device.NewArray(8), Config{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(32, 12)
	if err := s.PutCtx(ctx, "m", data); err != nil {
		t.Fatal(err)
	}
	s.Devices()[1].Fail() // one of a pair: fine
	if got, _, err := s.GetCtx(ctx, "m"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("single failure: %v", err)
	}
	s.Devices()[5].Fail() // its mirror: data loss
	if _, _, err := s.GetCtx(ctx, "m"); !errors.Is(err, ErrDataLoss) {
		t.Errorf("dead pair: err = %v, want ErrDataLoss", err)
	}
}
