// Command worstcase runs the paper's exhaustive combinatorial search for a
// graph's worst-case failure scenario: every combination of k lost nodes,
// for k = 1 up to -maxk, against the peeling decoder (paper §3: "(96
// choose 1 lost block) through (96 choose 6)").
//
// Usage:
//
//	worstcase -graph graph3.graphml -maxk 5
//	worstcase -seed 2006 -adjust 4 -maxk 5 -keepgoing
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"tornado"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("worstcase: ")

	var (
		graphPath = flag.String("graph", "", "GraphML graph to test (overrides -seed)")
		seed      = flag.Uint64("seed", 2006, "generate a fresh 96-node graph from this seed")
		adjustK   = flag.Int("adjust", 0, "adjust the generated graph to tolerate this cardinality first")
		maxK      = flag.Int("maxk", 5, "largest erasure cardinality to search")
		keepGoing = flag.Bool("keepgoing", false, "search all cardinalities even after the first failure")
		failures  = flag.Int("failures", 16, "failing sets to print")
	)
	flag.Parse()

	var g *tornado.Graph
	var err error
	if *graphPath != "" {
		g, err = tornado.LoadGraphML(*graphPath)
	} else {
		g, _, err = tornado.Generate(tornado.DefaultParams(), *seed)
		if err == nil && *adjustK > 0 {
			g, _, err = tornado.Improve(g, *adjustK, tornado.AdjustOptions{}, *seed+1)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("testing %v", g)

	start := time.Now()
	res, err := tornado.WorstCase(g, tornado.WorstCaseOptions{
		MaxK: *maxK, KeepGoing: *keepGoing, MaxFailures: *failures,
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	for _, kr := range res.PerK {
		fmt.Printf("k=%d: %d failures / %d combinations (%.3g)\n",
			kr.K, kr.FailureCount, kr.Tested, float64(kr.FailureCount)/float64(kr.Tested))
		for i, f := range kr.Failures {
			if i >= *failures {
				break
			}
			fmt.Printf("  failing set: %v\n", f)
		}
	}
	if res.Found {
		fmt.Printf("worst case failure scenario: %d lost nodes\n", res.FirstFailure)
	} else {
		fmt.Printf("no failure found up to %d lost nodes\n", *maxK)
	}
	fmt.Printf("%d combinations tested in %v (%.0f/s)\n",
		res.Tested, elapsed.Round(time.Millisecond), float64(res.Tested)/elapsed.Seconds())
}
