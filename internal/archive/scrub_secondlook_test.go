package archive

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/graph"
)

// pickPartialRepairCase finds a first-layer check node c (all left
// neighbors are data nodes) plus a data node d1 it covers and a data node
// d2 it does not: deleting d1, d2, and every other check block leaves a
// stripe where peeling recovers d1 through c but can never reach d2.
func pickPartialRepairCase(t *testing.T, g *graph.Graph) (c, d1, d2 int) {
	t.Helper()
	for r := g.Data; r < g.Total; r++ {
		nb := g.LeftNeighbors(r)
		if len(nb) < 2 {
			continue
		}
		allData := true
		covered := make([]bool, g.Data)
		for _, v := range nb {
			if !g.IsData(int(v)) {
				allData = false
				break
			}
			covered[v] = true
		}
		if !allData {
			continue
		}
		for d := 0; d < g.Data; d++ {
			if !covered[d] {
				return r, int(nb[0]), d
			}
		}
	}
	t.Fatal("no first-layer check with a non-covered data node in test graph")
	return 0, 0, 0
}

// TestScrubSecondLookSkipsSameForPassRepairs: when an unrecoverable stripe's
// only newly-available blocks are the ones this same pass just partially
// repaired, the second look must skip it — re-reading the whole stripe
// would double the pass's repair traffic only to fail identically.
func TestScrubSecondLookSkipsSamePassRepairs(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devs := device.NewArray(g.Total)
	s, err := New(g, devs, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCtx(ctx, "obj", payload(g.Data*64, 5)); err != nil {
		t.Fatal(err)
	}
	if s.List()[0].Stripes != 1 {
		t.Fatal("want a single-stripe object")
	}

	c, d1, d2 := pickPartialRepairCase(t, g)
	deleted := 0
	for node := 0; node < g.Total; node++ {
		if node == d1 || node == d2 || (!g.IsData(node) && node != c) {
			devs[node].Lose([]byte(fmt.Sprintf("obj/0/%d", node)))
			deleted++
		}
	}
	available := g.Total - deleted

	readsBefore := int64(0)
	for _, d := range devs {
		readsBefore += d.Stats().Reads
	}
	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	readsAfter := int64(0)
	for _, d := range devs {
		readsAfter += d.Stats().Reads
	}

	h := rep.Stripes[0]
	if h.Recoverable {
		t.Fatalf("stripe recovered despite uncovered data loss: %+v", h)
	}
	if !slices.Contains(h.Repaired, d1) {
		t.Fatalf("partial repair did not bank d1=%d (repaired %v)", d1, h.Repaired)
	}
	// d1 is now Available again, so without the same-pass-repair filter the
	// second look would have re-read every surviving frame. One sweep reads
	// each available frame exactly once.
	if got := readsAfter - readsBefore; got != int64(available) {
		t.Errorf("scrub pass read %d frames, want exactly %d (one sweep; second look must skip)",
			got, available)
	}
	if rep.Cost.BlocksRead != available {
		t.Errorf("scrub cost counted %d reads, want %d", rep.Cost.BlocksRead, available)
	}
}

// flakyAvailBackend hides a set of nodes (unavailable, unreadable) until the
// first full sweep has passed — Available has been asked about every node
// once — then reveals them, modeling transient unavailability that clears
// mid-pass.
type flakyAvailBackend struct {
	Backend
	total  int
	hidden map[int]bool
	calls  int
}

func (f *flakyAvailBackend) Available(node int, key []byte) bool {
	f.calls++
	if f.calls <= f.total && f.hidden[node] {
		return false
	}
	return f.Backend.Available(node, key)
}

// MediaEpoch answers not ok until the first sweep has passed, so that every
// probe of it reaches Available (and is counted) while nodes may be hidden.
func (f *flakyAvailBackend) MediaEpoch(node int) (uint64, bool) {
	if f.calls < f.total {
		return 0, false
	}
	return f.Backend.MediaEpoch(node)
}

func (f *flakyAvailBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	if f.calls <= f.total && f.hidden[node] {
		return nil, fmt.Errorf("flaky: node %d hidden", node)
	}
	return ReaderIntoOf(f.Backend).ReadInto(ctx, node, key, dst)
}

// TestScrubSecondLookRetriesNewAvailability: the converse — when a missing
// node the pass did NOT repair answers Available by the end of the sweep,
// the second look re-scrubs and recovers the stripe.
func TestScrubSecondLookRetriesNewAvailability(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devs := device.NewArray(g.Total)
	fb := &flakyAvailBackend{Backend: NewArrayBackend(devs), total: g.Total, hidden: map[int]bool{}}
	s, err := NewWithBackend(g, fb, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCtx(ctx, "obj", payload(g.Data*64, 6)); err != nil {
		t.Fatal(err)
	}

	// Hide two data nodes and every check node: with no checks visible the
	// first sweep cannot peel anything, so the stripe is unrecoverable —
	// until the flap clears at the end of the sweep.
	fb.hidden[0] = true
	fb.hidden[1] = true
	for r := g.Data; r < g.Total; r++ {
		fb.hidden[r] = true
	}
	fb.calls = 0

	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecoverable != 0 {
		t.Fatalf("second look did not rescue the stripe: %+v", rep.Stripes[0])
	}
	if h := rep.Stripes[0]; !h.Recoverable || len(h.Missing) != 0 {
		t.Errorf("post-second-look health = %+v, want fully recovered", h)
	}
}

// TestScrubSecondLookKeepsFirstLookCorruption: a rotten frame the first look
// detected and rewrote reads clean on the second look, and the pass must
// still count it. Data node d1 is rotten, d2 and every check but c hidden
// for the first sweep: the first look rebuilds d1 through c and rewrites it,
// cannot reach d2, and the second look — d2 back — recovers the stripe.
func TestScrubSecondLookKeepsFirstLookCorruption(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devs := device.NewArray(g.Total)
	fb := &flakyAvailBackend{Backend: NewArrayBackend(devs), total: g.Total, hidden: map[int]bool{}}
	s, err := NewWithBackend(g, fb, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCtx(ctx, "obj", payload(g.Data*64, 7)); err != nil {
		t.Fatal(err)
	}
	c, d1, d2 := pickPartialRepairCase(t, g)
	fb.hidden[d2] = true
	for r := g.Data; r < g.Total; r++ {
		fb.hidden[r] = r != c
	}
	corruptFrame(t, devs, d1)
	fb.calls = 0

	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Stripes[0]
	if !h.Recoverable || len(h.Missing) != 0 || !slices.Contains(h.Repaired, d1) {
		t.Fatalf("health %+v: want the stripe recovered on the second look, d1=%d rewritten on the first", h, d1)
	}
	if rep.CorruptFrames != 1 || !slices.Equal(h.Corrupt, []int{d1}) {
		t.Errorf("CorruptFrames %d, stripe Corrupt %v; want 1 and [%d]", rep.CorruptFrames, h.Corrupt, d1)
	}
	if got := s.Metrics().Counter("archive.scrub.corrupt_frames").Value(); got != 1 {
		t.Errorf("archive.scrub.corrupt_frames = %d, want 1", got)
	}
}
