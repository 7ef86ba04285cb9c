package tornado_test

import (
	"context"
	"testing"

	"tornado"
	"tornado/internal/reliability"
)

// TestMeasureOverheadPublic: the reconstruction overhead — the shortest
// prefix of a random arrival order that decodes — is read off a full-window
// failure profile: its mean over the data count, and its median.
func TestMeasureOverheadPublic(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 30)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tornado.ProfileCtx(context.Background(), g, tornado.ProfileOptions{Trials: 1500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if oh := p.AvgToReconstructRatio(); oh < 1.0 || oh > 1.6 {
		t.Errorf("overhead = %v", oh)
	}
	if p.NodesForSuccessProbability(0.5) < g.Data {
		t.Errorf("median below data count")
	}
}

func TestMTTDLPublic(t *testing.T) {
	mirror := func(k int) float64 { return tornado.MirroredFailGivenK(48, k) }
	noRepair, err := tornado.MTTDL(96, 0.01, 0, 0, mirror)
	if err != nil {
		t.Fatal(err)
	}
	withRepair, err := tornado.MTTDL(96, 0.01, 52, 2, mirror)
	if err != nil {
		t.Fatal(err)
	}
	if withRepair <= noRepair {
		t.Errorf("repair did not help: %v vs %v", withRepair, noRepair)
	}
	if p := reliability.AnnualLossProbability(withRepair); p <= 0 || p >= 1 {
		t.Errorf("annual loss probability = %v", p)
	}
}

func TestScheduleReconstructionPublic(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 31)
	if err != nil {
		t.Fatal(err)
	}
	avail := make([]bool, g.Total)
	for i := range avail {
		avail[i] = true
	}
	jobs := []tornado.StripeJob{
		{ID: "s1", Available: avail},
		{ID: "s2", Available: avail},
	}
	sched, total, err := tornado.ScheduleReconstruction(g, jobs, nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 2 {
		t.Fatalf("schedule: %v", sched)
	}
	_, arrivalTotal, err := tornado.ScheduleArrivalOrder(g, jobs, nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	if total > arrivalTotal {
		t.Errorf("greedy %d worse than arrival %d", total, arrivalTotal)
	}
}

func TestRunWorkloadPublic(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 32)
	if err != nil {
		t.Fatal(err)
	}
	devices := tornado.NewDevices(g.Total)
	store, err := tornado.NewArchive(g, devices, tornado.ArchiveConfig{BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tornado.RunWorkload(store, devices, tornado.WorkloadSpec{
		Ops: 50, PutFraction: 0.5, SizeDist: tornado.SizeUniform,
		MinSize: 100, MaxSize: 5000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Puts == 0 || res.Corrupted != 0 || res.LostObjects != 0 {
		t.Errorf("workload result: %+v", res)
	}
}
