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

// deviceReads is the number of reads devs have served.
func deviceReads(devs device.Array) int64 {
	n := int64(0)
	for _, d := range devs {
		n += d.Stats().Reads
	}
	return n
}

// TestScrubVisitSkipsSamePassRepairs: the retry reads only the missing nodes
// the peel could not rebuild. A block the visit itself rebuilt (d1, through
// c) is written, not read again, and the nodes that stay dark are probed, not
// read: the pass reads each available frame exactly once.
func TestScrubVisitSkipsSamePassRepairs(t *testing.T) {
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

	readsBefore := deviceReads(devs)
	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Stripes[0]
	if h.Recoverable {
		t.Fatalf("stripe recovered despite uncovered data loss: %+v", h)
	}
	if !slices.Contains(h.Repaired, d1) {
		t.Fatalf("partial repair did not bank d1=%d (repaired %v)", d1, h.Repaired)
	}
	if got := deviceReads(devs) - readsBefore; got != int64(available) {
		t.Errorf("scrub pass read %d frames, want exactly %d (one sweep; the retry reads nothing)",
			got, available)
	}
	if rep.Cost.BlocksRead != available {
		t.Errorf("scrub cost counted %d reads, want %d", rep.Cost.BlocksRead, available)
	}
}

// flakyAvailBackend hides a set of nodes (unavailable, unreadable) until the
// first full sweep has passed — Available has been asked about every node
// once — then reveals them, modeling transient unavailability that clears
// within a single-stripe visit, before its retry.
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

// TestScrubVisitRetriesNewAvailability: a node dark for the sweep and back by
// the retry is read once more, within the stripe's one visit, and the stripe
// is whole. Data node d1 and every check but c are lost, d2 is dark for the
// sweep: the peel rebuilds d1 through c but cannot reach d2, and the retry's
// read of d2 completes the stripe.
func TestScrubVisitRetriesNewAvailability(t *testing.T) {
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
	c, d1, d2 := pickPartialRepairCase(t, g)
	available := g.Total
	for node := 0; node < g.Total; node++ {
		if node == d1 || (!g.IsData(node) && node != c) {
			devs[node].Lose([]byte(fmt.Sprintf("obj/0/%d", node)))
			available--
		}
	}
	fb.hidden[d2] = true
	available-- // d2, for the sweep
	const retried = 1
	fb.calls = 0

	readsBefore := deviceReads(devs)
	rep, err := s.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Stripes[0]
	if !h.Recoverable || rep.Unrecoverable != 0 || slices.Contains(h.Missing, d2) || !slices.Equal(h.Missing, h.Repaired) {
		t.Fatalf("health %+v: want the stripe whole, d2=%d read by the retry, every other missing block rewritten", h, d2)
	}
	if got := deviceReads(devs) - readsBefore; got != int64(available+retried) {
		t.Errorf("scrub pass read %d frames, want %d (one sweep of %d, %d retried)",
			got, available+retried, available, retried)
	}
}

// TestScrubVisitKeepsFirstLookCorruption: a rotten frame the sweep met is the
// pass's, whatever the retry does. Data node d1 is rotten, d2 and every check
// but c are dark for the sweep: the peel rebuilds d1 through c, cannot reach
// d2, and the retry — d2 and the checks back — completes the stripe. The
// retry does not re-read d1, whose frame was rotten, so the one visit both
// reports d1 missing and rewrites it.
func TestScrubVisitKeepsFirstLookCorruption(t *testing.T) {
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
	if !h.Recoverable || !slices.Contains(h.Missing, d1) || !slices.Contains(h.Repaired, d1) || slices.Contains(h.Missing, d2) {
		t.Fatalf("health %+v: want the stripe whole, d1=%d missing and rewritten, d2=%d read by the retry", h, d1, d2)
	}
	if rep.CorruptFrames != 1 || !slices.Equal(h.Corrupt, []int{d1}) {
		t.Errorf("CorruptFrames %d, stripe Corrupt %v; want 1 and [%d]", rep.CorruptFrames, h.Corrupt, d1)
	}
	if got := s.Metrics().Counter("archive.scrub.corrupt_frames").Value(); got != 1 {
		t.Errorf("archive.scrub.corrupt_frames = %d, want 1", got)
	}
}

// TestRepairFromAsksTheDonorOncePerStripe: the donor sees a stripe once, after
// the visit's retry, and only what the site still lacks. Data node 5 and every
// check are lost, data node 3 is dark for the sweep, and the donor supplies
// nothing: the retry reads node 3, so the one donor call lacks node 5 and the
// checks over it, not node 3.
func TestRepairFromAsksTheDonorOncePerStripe(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devs := device.NewArray(g.Total)
	fb := &flakyAvailBackend{Backend: NewArrayBackend(devs), total: g.Total, hidden: map[int]bool{3: true}}
	s, err := NewWithBackend(g, fb, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCtx(ctx, "obj", payload(g.Data*64, 8)); err != nil {
		t.Fatal(err)
	}
	if s.List()[0].Stripes != 1 {
		t.Fatal("want a single-stripe object")
	}
	for node := 0; node < g.Total; node++ {
		if node == 5 || !g.IsData(node) {
			devs[node].Lose([]byte(fmt.Sprintf("obj/0/%d", node)))
		}
	}
	fb.calls = 0

	var calls [][]int
	rep, err := s.RepairFrom(ctx, func(_ context.Context, _ string, _ int, lacking []int, _ [][]byte) error {
		calls = append(calls, slices.Clone(lacking))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 {
		t.Fatalf("donor called %d times (lacking %v), want once", len(calls), calls)
	}
	if lacking := calls[0]; !slices.Contains(lacking, 5) || slices.Contains(lacking, 3) {
		t.Errorf("donor told the stripe lacks %v: want node 5, and not node 3, which the retry read", lacking)
	}
	if h := rep.Stripes[0]; h.Recoverable || slices.Contains(h.Missing, 3) {
		t.Errorf("health %+v: want node 5 lost for good and node 3 read", h)
	}
}
