package federation

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tornado/internal/graph"
	"tornado/internal/sim"
)

// TestJointDecodeThreeSites checks exchange semantics at N=3: a data block
// survives as long as ANY site can produce it, and dies only when every
// site has lost it.
func TestJointDecodeThreeSites(t *testing.T) {
	s, err := NewSystem(mirrorSite(4), mirrorSite(4), mirrorSite(4))
	if err != nil {
		t.Fatal(err)
	}
	// All 6 copies of block 0 gone: unrecoverable.
	ok, lost := s.JointDecode([][]int{{0, 4}, {0, 4}, {0, 4}})
	if ok {
		t.Fatal("losing all 6 copies must fail")
	}
	if len(lost) != 1 || lost[0] != 0 {
		t.Errorf("lost = %v, want [0]", lost)
	}
	// Any site with a surviving copy rescues the other two.
	for _, e := range [][][]int{
		{{0, 4}, {0, 4}, {0}},
		{{0, 4}, {0, 4}, {4}},
		{{0, 4}, {0, 4}, {}},
		{{0, 4}, {}, {0, 4}},
	} {
		if !s.JointRecoverable(e) {
			t.Errorf("erasure %v should be recoverable", e)
		}
	}
}

// TestJointDecodeConcurrent is the -race regression for the shared-decoder
// bug: concurrent JointDecode calls on one System must neither race nor
// corrupt each other's results. Every goroutine decodes a different
// erasure with a known outcome and cross-checks against the sequential
// answer.
func TestJointDecodeConcurrent(t *testing.T) {
	s, err := NewSystem(mirrorSite(8), mirrorSite(8))
	if err != nil {
		t.Fatal(err)
	}
	// Pattern i kills all copies of block i — always exactly {i} lost —
	// interleaved with fully-recoverable patterns.
	type tc struct {
		erased [][]int
		ok     bool
		lost   []int
	}
	var cases []tc
	for i := 0; i < 8; i++ {
		cases = append(cases,
			tc{[][]int{{i, i + 8}, {i, i + 8}}, false, []int{i}},
			tc{[][]int{{i, i + 8}, {i}}, true, nil},
		)
	}
	// Sequential ground truth first.
	for _, c := range cases {
		ok, lost := s.JointDecode(c.erased)
		if ok != c.ok || !reflect.DeepEqual(lost, c.lost) {
			t.Fatalf("sequential JointDecode(%v) = (%v, %v), want (%v, %v)",
				c.erased, ok, lost, c.ok, c.lost)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(cases)*8)
	for round := 0; round < 8; round++ {
		for _, c := range cases {
			wg.Add(1)
			go func(c tc) {
				defer wg.Done()
				ok, lost := s.JointDecode(c.erased)
				if ok != c.ok || !reflect.DeepEqual(lost, c.lost) {
					errs <- "concurrent JointDecode diverged from sequential result"
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestDetectFirstFailureThreeSitesMirrored is what the pairwise search
// could not do: with three sites, blocking only one partner leaves the
// third site free to supply every lost block, so a joint witness must
// erase at all sites. Three mirrored-4 sites = 6 copies of each block;
// the true joint first failure is 6 and the generalized search must find
// exactly that.
func TestDetectFirstFailureThreeSitesMirrored(t *testing.T) {
	s, err := NewSystem(mirrorSite(4), mirrorSite(4), mirrorSite(4))
	if err != nil {
		t.Fatal(err)
	}
	wc, err := sim.WorstCaseCtx(context.Background(), s.sites[0], sim.WorstCaseOptions{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs := CriticalSets(s.sites[0], wc.PerK[1].Failures)
	det, err := s.DetectFirstFailureCtx(ctx, [][]CriticalSet{cs, cs, cs}, SearchOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if det.TotalErased != 6 {
		t.Errorf("detected joint first failure = %d, want 6 (all copies of one block)", det.TotalErased)
	}
	if len(det.SiteErasures) != 3 {
		t.Fatalf("witness has %d site erasures, want 3", len(det.SiteErasures))
	}
	for i, e := range det.SiteErasures {
		if len(e) == 0 {
			t.Errorf("site %d untouched in witness %v — exchange would resurrect the block", i, det.SiteErasures)
		}
	}
	if ok, _ := s.JointDecode(det.SiteErasures); ok {
		t.Error("detection witness does not actually fail")
	}
}

// TestSearchComplementarySets exercises the campaign search plumbing on a
// cheap candidate pool: identical mirrored graphs score identically, every
// 2-combination is present exactly once, and each reported detection is a
// real joint failure.
func TestSearchComplementarySets(t *testing.T) {
	g0, g1, g2 := mirrorSite(4), mirrorSite(4), mirrorSite(4)
	wc, err := sim.WorstCaseCtx(context.Background(), g0, sim.WorstCaseOptions{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs := CriticalSets(g0, wc.PerK[1].Failures)
	candidates := []*graph.Graph{g0, g1, g2}
	critical := [][]CriticalSet{cs, cs, cs}

	scores, err := SearchComplementarySets(context.Background(), candidates, critical, 2, SearchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("got %d combinations of 3 choose 2, want 3", len(scores))
	}
	seen := map[string]bool{}
	for _, sc := range scores {
		if len(sc.Indices) != 2 {
			t.Fatalf("combination %v has wrong size", sc.Indices)
		}
		key := fmt.Sprintf("%v", sc.Indices)
		if seen[key] {
			t.Fatalf("combination %v reported twice", sc.Indices)
		}
		seen[key] = true
		// All candidates are the same mirrored graph: every pair detects
		// the all-copies-of-one-block failure at exactly 4.
		if sc.Detection.TotalErased != 4 {
			t.Errorf("combination %v detected %d, want 4", sc.Indices, sc.Detection.TotalErased)
		}
		sys, err := NewSystem(candidates[sc.Indices[0]], candidates[sc.Indices[1]])
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := sys.JointDecode(sc.Detection.SiteErasures); ok {
			t.Errorf("combination %v witness does not fail", sc.Indices)
		}
	}

	// Bad inputs.
	if _, err := SearchComplementarySets(context.Background(), candidates, critical[:2], 2, SearchOptions{}); err == nil {
		t.Error("mismatched critical length accepted")
	}
	if _, err := SearchComplementarySets(context.Background(), candidates, critical, 5, SearchOptions{}); err == nil {
		t.Error("oversized combination accepted")
	}
}
