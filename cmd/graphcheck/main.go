// Command graphcheck vets an erasure graph before production use — the
// paper's closing recommendation: "a storage system using Tornado Codes
// where data loss must be avoided should use precompiled graphs ... or
// perform basic worst-case fault detection on new graphs before use".
//
// It validates the structure, scans for closed-set defects, runs the
// exhaustive worst-case search, optionally samples the failure profile,
// and can render the first failing pattern as SVG for inspection.
//
// Usage:
//
//	graphcheck -graph mygraph.graphml -maxk 4 -svg failure.svg
//	graphcheck -precompiled tornado96-1 -maxk 5 -profile
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"tornado"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphcheck: ")

	var (
		graphPath   = flag.String("graph", "", "GraphML graph to vet")
		precompiled = flag.String("precompiled", "", "vet a shipped certified graph by name")
		maxK        = flag.Int("maxk", 4, "exhaustive worst-case search bound")
		profileIt   = flag.Bool("profile", false, "also sample the failure profile and summary metrics")
		trials      = flag.Int64("trials", 20000, "profile trials per point")
		svgPath     = flag.String("svg", "", "render the first failing pattern (or the clean graph) as SVG")
	)
	flag.Parse()
	ctx := context.Background()

	var g *tornado.Graph
	var err error
	switch {
	case *graphPath != "":
		g, err = tornado.LoadGraphML(*graphPath)
	case *precompiled != "":
		g, err = tornado.LoadPrecompiled(*precompiled)
	default:
		log.Fatal("need -graph or -precompiled")
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph:    %v\n", g)

	if err := g.Validate(); err != nil {
		log.Fatalf("INVALID: %v", err)
	}
	fmt.Println("structure: valid")

	all, err := tornado.ScanAllDefectsCtx(ctx, g, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	var defects, upper []tornado.Defect // data-level findings reject; upper-level ones warn
	for _, d := range all {
		if d.Level == 0 {
			defects = append(defects, d)
		} else {
			upper = append(upper, d)
		}
	}
	if len(defects) == 0 {
		fmt.Println("defects:   none up to closed sets of size 3")
	} else {
		fmt.Printf("defects:   %d closed sets found — REJECT for production use\n", len(defects))
		for i, d := range defects {
			if i >= 5 {
				fmt.Printf("           … and %d more\n", len(defects)-5)
				break
			}
			fmt.Printf("           %v\n", d)
		}
	}
	if len(upper) > 0 {
		fmt.Printf("cascade:   %d closed sets in check levels (weak points, not standalone data loss)\n", len(upper))
		for i, d := range upper {
			if i >= 5 {
				fmt.Printf("           … and %d more\n", len(upper)-5)
				break
			}
			fmt.Printf("           %v\n", d)
		}
	}

	wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: *maxK})
	if err != nil {
		log.Fatal(err)
	}
	var highlight []int
	if wc.Found {
		last := wc.PerK[len(wc.PerK)-1]
		fmt.Printf("worst case: FIRST FAILURE at %d lost nodes (%d/%d patterns)\n",
			wc.FirstFailure, last.FailureCount, last.Tested)
		if len(last.Failures) > 0 {
			res := tornado.NewDecoder(g).Decode(last.Failures[0])
			highlight = append(highlight, last.Failures[0]...)
			fmt.Printf("            example: lose %v → unrecoverable data %v\n",
				last.Failures[0], res.UnrecoveredData)
		}
	} else {
		fmt.Printf("worst case: tolerates any %d simultaneous losses (%d patterns tested)\n", *maxK, wc.Tested)
	}

	if *profileIt {
		p, err := tornado.ProfileCtx(ctx, g, tornado.ProfileOptions{Trials: *trials, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		avg := p.AvgNodesToReconstruct()
		fmt.Printf("profile:   avg to reconstruct %.2f (%.2f), 50%% at %d nodes (overhead %.2f)\n",
			avg, avg/float64(g.Data), p.NodesForSuccessProbability(0.5), p.Overhead())
		fmt.Printf("           P(fail) at AFR 1%%: %.3g\n", tornado.SystemFailure(g.Total, 0.01, p.FailFraction))
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tornado.WriteSVG(f, g, highlight); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("svg:       wrote %s\n", *svgPath)
	}

	if len(defects) > 0 || (wc.Found && wc.FirstFailure <= 2) {
		os.Exit(1)
	}
}
