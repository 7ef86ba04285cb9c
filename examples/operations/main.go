// Operations example: the day-2 concerns of a Tornado-coded archive —
// capacity planning with MTTDL under repair, a verified synthetic
// workload with failure/repair injection, and batch reconstruction
// scheduling on a power-budgeted shelf. These are the §5/§6 future-work
// threads of the paper, implemented.
package main

import (
	"context"
	"fmt"
	"log"

	"tornado"
)

func main() {
	log.SetFlags(0)

	// Use a certified precompiled graph, per the paper's conclusion
	// ("should use precompiled graphs and not random graphs").
	g, err := tornado.LoadPrecompiled("tornado96-1")
	if err != nil {
		log.Fatal(err)
	}
	cert, err := tornado.PrecompiledCertificate("tornado96-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("using %v\ncertificate excerpt:\n", g)
	for i, line := 0, 0; i < len(cert) && line < 4; i++ {
		fmt.Print(string(cert[i]))
		if cert[i] == '\n' {
			line++
		}
	}
	fmt.Println()

	// 1. Capacity planning: how long until data loss, with and without a
	//    repair crew? (AFR 1%/drive.)
	prof, err := tornado.ProfileCtx(context.Background(), g, tornado.ProfileOptions{Trials: 4000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	mirror := func(k int) float64 { return tornado.MirroredFailGivenK(48, k) }
	for _, pol := range []struct {
		name      string
		mu        float64
		repairmen int
	}{
		{"no repair", 0, 0},
		{"monthly rebuilds", 12, 1},
	} {
		mt, err := tornado.MTTDL(96, 0.01, pol.mu, pol.repairmen, prof.FailFraction)
		if err != nil {
			log.Fatal(err)
		}
		mm, err := tornado.MTTDL(96, 0.01, pol.mu, pol.repairmen, mirror)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MTTDL (%s): tornado %.3g years vs mirrored %.3g years (%.0fx)\n",
			pol.name, mt, mm, mt/mm)
	}

	// 2. A verified workload: ingest and retrieve objects while drives
	//    fail and get replaced; every payload is checked.
	devices := tornado.NewDevices(g.Total)
	store, err := tornado.NewArchive(g, devices, tornado.ArchiveConfig{
		BlockSize: 1024, FirstFailure: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := tornado.RunWorkload(store, devices, tornado.WorkloadSpec{
		Ops: 300, PutFraction: 0.4,
		SizeDist: tornado.SizeLogNormal, MeanSize: 20000, MaxSize: 200000,
		FailEvery: 80, RepairEvery: 150, Seed: 2006,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworkload: %d puts (%.1f MiB), %d gets, %d failures injected, %d drives replaced, %d blocks repaired\n",
		res.Puts, float64(res.BytesIn)/(1<<20), res.Gets, res.FailuresInjected, res.Replacements, res.BlocksRepaired)
	fmt.Printf("verification: %d corrupted, %d lost\n", res.Corrupted, res.LostObjects)
	if res.Corrupted != 0 || res.LostObjects != 0 {
		log.Fatal("workload lost or corrupted data")
	}

	// 3. Batch reconstruction scheduling: ten stripes with differing
	//    block availability must be rebuilt on a 52-drive power budget
	//    (room for one job's working set, not for thrashing between two).
	jobs := make([]tornado.StripeJob, 10)
	for i := range jobs {
		avail := make([]bool, g.Total)
		for v := range avail {
			avail[v] = true
		}
		// Alternate which block group each stripe is missing: the two
		// groups' substitute-check working sets do not both fit the
		// budget, so ordering matters.
		for v := (i % 2) * 10; v < (i%2)*10+10; v++ {
			avail[v] = false
		}
		jobs[i] = tornado.StripeJob{ID: fmt.Sprintf("stripe-%02d", i), Available: avail}
	}
	_, greedy, err := tornado.ScheduleReconstruction(g, jobs, nil, 52)
	if err != nil {
		log.Fatal(err)
	}
	_, arrival, err := tornado.ScheduleArrivalOrder(g, jobs, nil, 52)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch reconstruction of %d stripes (budget 52 drives): %d spin-ups scheduled vs %d in arrival order\n",
		len(jobs), greedy, arrival)
}
