package federation

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"tornado/internal/adjust"
	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/raid"
	"tornado/internal/sim"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

func mirrorSite(pairs int) *graph.Graph { return raid.MirroredGraph(pairs) }

func tornadoSite(t testing.TB, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(mirrorSite(4)); err == nil {
		t.Error("single site accepted")
	}
	if _, err := NewSystem(mirrorSite(4), mirrorSite(5)); err == nil {
		t.Error("mismatched data counts accepted")
	}
	s, err := NewSystem(mirrorSite(4), mirrorSite(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Sites() != 2 || s.Data() != 4 || s.TotalDevices() != 16 {
		t.Errorf("accessors: sites=%d data=%d devices=%d", s.Sites(), s.Data(), s.TotalDevices())
	}
}

func TestJointDecodeMirrored4Copies(t *testing.T) {
	// Two mirrored sites = 4 copies of every block (Table 7 row 1):
	// first failure is 4 — all copies of one block.
	s, err := NewSystem(mirrorSite(4), mirrorSite(4))
	if err != nil {
		t.Fatal(err)
	}
	// Kill data 0 and its mirror at both sites.
	ok, lost := s.JointDecode([][]int{{0, 4}, {0, 4}})
	if ok {
		t.Fatal("losing all 4 copies must fail")
	}
	if len(lost) != 1 || lost[0] != 0 {
		t.Errorf("lost = %v, want [0]", lost)
	}
	// Any 3 of the copies is survivable.
	for _, e := range [][][]int{
		{{0, 4}, {0}}, {{0, 4}, {4}}, {{0}, {0, 4}}, {{0, 4}, {}},
	} {
		if !s.JointRecoverable(e) {
			t.Errorf("erasure %v should be recoverable", e)
		}
	}
}

func TestJointDecodeExchangeUnlocksPartner(t *testing.T) {
	// Site A loses a dead pair; site B holds the block and supplies it.
	s, err := NewSystem(mirrorSite(4), mirrorSite(4))
	if err != nil {
		t.Fatal(err)
	}
	if !s.JointRecoverable([][]int{{0, 4}, {}}) {
		t.Error("partner replica should rescue a dead pair")
	}
	// State must not leak across calls.
	if ok, _ := s.JointDecode([][]int{{0, 4}, {0, 4}}); ok {
		t.Error("state leaked: second decode should fail")
	}
	if !s.JointRecoverable([][]int{{0, 4}, {}}) {
		t.Error("state leaked after failing decode")
	}
}

func TestCriticalSets(t *testing.T) {
	g := mirrorSite(4)
	sets := CriticalSets(g, [][]int{{0, 4}, {1, 5}, {2}})
	if len(sets) != 2 {
		t.Fatalf("got %d critical sets, want 2 ({2} is recoverable)", len(sets))
	}
	if len(sets[0].Lost) != 1 || sets[0].Lost[0] != 0 {
		t.Errorf("set 0 lost = %v", sets[0].Lost)
	}
}

func TestDetectFirstFailureMirrored(t *testing.T) {
	s, err := NewSystem(mirrorSite(4), mirrorSite(4))
	if err != nil {
		t.Fatal(err)
	}
	// Component critical sets: dead pairs (first failure 2 each site).
	wc, err := sim.WorstCaseCtx(context.Background(), s.sites[0], sim.WorstCaseOptions{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs := CriticalSets(s.sites[0], wc.PerK[1].Failures)
	det, err := s.DetectFirstFailureCtx(ctx, [][]CriticalSet{cs, cs}, SearchOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Mirrored+mirrored: the true first failure is 4 (all copies of one
	// block); the seeded search must find exactly that.
	if det.TotalErased != 4 {
		t.Errorf("detected first failure = %d, want 4", det.TotalErased)
	}
	if ok, _ := s.JointDecode(det.SiteErasures); ok {
		t.Error("detection witness does not actually fail")
	}
}

func TestDetectFirstFailureSameTornadoGraph(t *testing.T) {
	// Same graph at both sites: the paper expects first failure =
	// 2 × component first failure ("Tornado 1 + Tornado 1 ... loss of 10
	// devices as expected" for component first failure 5).
	g := tornadoSite(t, 3)
	s, err := NewSystem(g, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wc, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !wc.Found {
		t.Skip("graph tolerates 4 losses; component critical sets too expensive for this test")
	}
	k := wc.FirstFailure
	cs := CriticalSets(g, wc.PerK[len(wc.PerK)-1].Failures)
	if len(cs) == 0 {
		t.Fatal("no critical sets")
	}
	det, err := s.DetectFirstFailureCtx(ctx, [][]CriticalSet{cs, cs}, SearchOptions{Seed: 6, Restarts: 16})
	if err != nil {
		t.Fatal(err)
	}
	if det.TotalErased < 2*k {
		t.Errorf("detected %d < theoretical minimum %d", det.TotalErased, 2*k)
	}
	// With identical graphs the same critical set works at both sites, so
	// the search should find exactly 2k.
	if det.TotalErased != 2*k {
		t.Errorf("detected %d, want %d for identical graphs", det.TotalErased, 2*k)
	}
	if ok, _ := s.JointDecode(det.SiteErasures); ok {
		t.Error("witness does not fail")
	}
}

func TestComplementaryGraphsBeatSameGraph(t *testing.T) {
	// Qualitative Table 7 shape: complementary graphs push the detected
	// first failure well above the same-graph 2k. Uses k=3-adjusted small
	// searches to stay fast; the full 96-node version lives in the bench
	// harness.
	gA := tornadoSite(t, 11)
	gB := tornadoSite(t, 12)
	rng := rand.New(rand.NewPCG(13, 13))
	gA, _, err := adjust.ImproveCtx(ctx, gA, 3, adjust.Options{MaxRounds: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	gB, _, err = adjust.ImproveCtx(ctx, gB, 3, adjust.Options{MaxRounds: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wcA, err := sim.WorstCaseCtx(context.Background(), gA, sim.WorstCaseOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	wcB, err := sim.WorstCaseCtx(context.Background(), gB, sim.WorstCaseOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !wcA.Found || !wcB.Found || wcA.FirstFailure != wcB.FirstFailure {
		t.Skipf("draws not comparable (A found=%v k=%d, B found=%v k=%d)",
			wcA.Found, wcA.FirstFailure, wcB.Found, wcB.FirstFailure)
	}
	k := wcA.FirstFailure
	csA := CriticalSets(gA, wcA.PerK[len(wcA.PerK)-1].Failures)
	csB := CriticalSets(gB, wcB.PerK[len(wcB.PerK)-1].Failures)

	same, err := NewSystem(gA, gA.Clone())
	if err != nil {
		t.Fatal(err)
	}
	detSame, err := same.DetectFirstFailureCtx(ctx, [][]CriticalSet{csA, csA}, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	comp, err := NewSystem(gA, gB)
	if err != nil {
		t.Fatal(err)
	}
	detComp, err := comp.DetectFirstFailureCtx(ctx, [][]CriticalSet{csA, csB}, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("component k=%d: same-graph detected %d, complementary detected %d",
		k, detSame.TotalErased, detComp.TotalErased)
	if detComp.TotalErased < detSame.TotalErased {
		t.Errorf("complementary graphs detected earlier failure (%d) than same graph (%d)",
			detComp.TotalErased, detSame.TotalErased)
	}
}

func TestDetectFirstFailureNoCriticalSets(t *testing.T) {
	s, err := NewSystem(mirrorSite(4), mirrorSite(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetectFirstFailureCtx(ctx, [][]CriticalSet{{}, {}}, SearchOptions{}); err == nil {
		t.Error("empty critical sets should error")
	}
	if _, err := s.DetectFirstFailureCtx(ctx, [][]CriticalSet{{}}, SearchOptions{}); err == nil {
		t.Error("wrong site count should error")
	}
}

// BenchmarkJointDecode times one joint verdict on 8 random erasures per
// site, for two and three generated 96-node sites.
func BenchmarkJointDecode(b *testing.B) {
	graphs := []*graph.Graph{tornadoSite(b, 1), tornadoSite(b, 2), tornadoSite(b, 3)}
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			sys, err := NewSystem(graphs[:n]...)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(3, 3))
			erased := make([][]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := range erased {
					erased[s] = rng.Perm(96)[:8]
				}
				sys.JointDecode(erased)
			}
		})
	}
}
