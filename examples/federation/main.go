// Federation example: a two-site data stewarding system in which each site
// protects the same replicated collection with a *different* Tornado Code
// graph (paper §5.3). When a failure pattern defeats both sites
// independently, exchanging a single critical block can still rescue the
// data — the complementary-graph effect behind Table 7.
package main

import (
	"context"
	"fmt"
	"log"

	"tornado"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// Two sites, two different graphs over the same 48 logical blocks.
	gA, _, err := tornado.Generate(tornado.DefaultParams(), 2006)
	if err != nil {
		log.Fatal(err)
	}
	gA, _, err = tornado.ImproveCtx(ctx, gA, 3, tornado.AdjustOptions{}, 1)
	if err != nil {
		log.Fatal(err)
	}
	gA.Name = "site-A"
	gB, _, err := tornado.Generate(tornado.DefaultParams(), 2007)
	if err != nil {
		log.Fatal(err)
	}
	gB, _, err = tornado.ImproveCtx(ctx, gB, 3, tornado.AdjustOptions{}, 2)
	if err != nil {
		log.Fatal(err)
	}
	gB.Name = "site-B"
	fmt.Printf("site A: %v\nsite B: %v\n\n", gA, gB)

	// Find each site's critical sets (smallest failing erasure patterns).
	wcA, err := tornado.WorstCaseCtx(ctx, gA, tornado.WorstCaseOptions{MaxK: 4})
	if err != nil {
		log.Fatal(err)
	}
	wcB, err := tornado.WorstCaseCtx(ctx, gB, tornado.WorstCaseOptions{MaxK: 4})
	if err != nil {
		log.Fatal(err)
	}
	report := func(name string, wc tornado.WorstCaseResult) [][]int {
		if !wc.Found {
			fmt.Printf("%s tolerates any %d losses\n", name, 4)
			return nil
		}
		last := wc.PerK[len(wc.PerK)-1]
		fmt.Printf("%s first failure: %d lost devices (%d of %d patterns)\n",
			name, wc.FirstFailure, last.FailureCount, last.Tested)
		return last.Failures
	}
	failsA := report("site A", wcA)
	failsB := report("site B", wcB)
	if failsA == nil || failsB == nil {
		fmt.Println("\nno critical sets at k<=4; nothing to demonstrate (re-run with other seeds)")
		return
	}

	// The headline §5.3 scenario: hit site A with one of its own critical
	// sets. Site A alone loses data...
	sys, err := tornado.NewFederation(gA, gB)
	if err != nil {
		log.Fatal(err)
	}
	csA := tornado.CriticalSetsOf(gA, failsA)
	cs := csA[0]
	fmt.Printf("\nsite A hit by its critical set %v (would lose blocks %v alone)\n", cs.Erased, cs.Lost)

	// ...but the federation exchanges blocks: site B reconstructs the
	// critical blocks and supplies them.
	ok, lost := sys.JointDecode([][]int{cs.Erased, nil})
	fmt.Printf("federated decode with a healthy partner: recovered=%v lost=%v\n", ok, lost)
	if !ok {
		log.Fatal("federation failed to rescue site A")
	}

	// Even when BOTH sites are hit by their own critical sets at the same
	// time, the sets differ, so each site rescues the other's blocks.
	csB := tornado.CriticalSetsOf(gB, failsB)
	ok, lost = sys.JointDecode([][]int{cs.Erased, csB[0].Erased})
	fmt.Printf("both sites hit by their own critical sets: recovered=%v lost=%v\n", ok, lost)

	// Finally, search for the smallest joint failure the seeded heuristic
	// can construct (Table 7's "first failure detected").
	det, err := sys.DetectFirstFailureCtx(ctx,
		[][]tornado.CriticalSet{csA, csB},
		tornado.FederationSearchOptions{Seed: 3},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst failure detected for the federation: %d devices\n", det.TotalErased)
	fmt.Printf("  site A erasure: %v\n", det.SiteErasures[0])
	fmt.Printf("  site B erasure: %v\n", det.SiteErasures[1])
	single := wcA.FirstFailure
	fmt.Printf("compare: one site alone first-fails at %d; same-graph replication at %d\n",
		single, 2*single)
}
