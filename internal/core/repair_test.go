package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"tornado/internal/decode"
	"tornado/internal/defect"
	"tornado/internal/graph"
)

// dataDefects is the generation screen's full scan of the data level.
func dataDefects(g *graph.Graph, maxSize int) []defect.Finding {
	fs, _ := defect.ScanDataLevelCtx(context.Background(), g, maxSize, 0)
	return fs
}

func TestRepairDefectsCleansUnscreenedGraphs(t *testing.T) {
	// Most unscreened 96-node graphs carry closed pairs (§3.2); repair
	// should clean nearly all of them within the round budget.
	rng := rand.New(rand.NewPCG(2024, 3))
	repaired, tried := 0, 0
	for seed := 0; seed < 20; seed++ {
		g, err := GenerateUnscreened(DefaultParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(dataDefects(g, 3)) == 0 {
			continue // already clean
		}
		tried++
		ok, rewires := RepairDefects(g, 3, 64, rng)
		if !ok {
			continue
		}
		repaired++
		if rewires == 0 {
			t.Error("repair succeeded with zero rewires on a defective graph")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("repaired graph invalid: %v", err)
		}
		if fs := dataDefects(g, 3); len(fs) != 0 {
			t.Errorf("repair claimed success but defects remain: %v", fs)
		}
	}
	if tried == 0 {
		t.Skip("no defective graphs drawn (astronomically unlikely)")
	}
	t.Logf("repaired %d/%d defective graphs", repaired, tried)
	if repaired*2 < tried {
		t.Errorf("repair succeeded on only %d/%d graphs", repaired, tried)
	}
}

func TestRepairedDefectsAreReallyGone(t *testing.T) {
	// After repair, previously-failing closed sets must decode.
	rng := rand.New(rand.NewPCG(99, 9))
	for seed := 0; seed < 5; seed++ {
		g, err := GenerateUnscreened(DefaultParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		before := dataDefects(g, 3)
		if len(before) == 0 {
			continue
		}
		ok, _ := RepairDefects(g, 3, 64, rng)
		if !ok {
			continue
		}
		d := decode.New(g)
		for _, f := range before {
			if !d.Recoverable(f.Lefts) {
				t.Errorf("set %v still unrecoverable after repair", f.Lefts)
			}
		}
		return
	}
	t.Skip("no repairable defective graph drawn")
}

func TestRepairZeroRoundsLeavesDefects(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for seed := 0; seed < 10; seed++ {
		g, err := GenerateUnscreened(DefaultParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(dataDefects(g, 3)) == 0 {
			continue
		}
		ok, rewires := RepairDefects(g, 3, 0, rng)
		if ok || rewires != 0 {
			t.Errorf("zero-round repair reported ok=%v rewires=%d", ok, rewires)
		}
		return
	}
	t.Skip("no defective graph drawn")
}

func TestRepairPreservesDataDegrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 2))
	g, err := GenerateUnscreened(DefaultParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	degBefore := make([]int, g.Data)
	for v := 0; v < g.Data; v++ {
		degBefore[v] = g.Degree(v)
	}
	RepairDefects(g, 3, 64, rng)
	for v := 0; v < g.Data; v++ {
		if g.Degree(v) != degBefore[v] {
			t.Errorf("data node %d degree changed %d → %d", v, degBefore[v], g.Degree(v))
		}
	}
}
