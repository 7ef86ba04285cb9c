// Command precompile regenerates the certified graphs shipped with the
// library in precompiled/. The paper's conclusion recommends exactly this
// workflow: "a storage system using Tornado Codes where data loss must be
// avoided should use precompiled graphs and not random graphs".
//
// For each seed it runs the full pipeline — generate, screen/repair,
// feedback-adjust to the target cardinality, certify by exhaustive search —
// and writes the graph as GraphML plus a sidecar .cert file recording the
// certification.
//
// Usage:
//
//	precompile -adjust 4 -certify 5 -out ./precompiled
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"tornado"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("precompile: ")

	var (
		out     = flag.String("out", "precompiled", "output directory")
		adjustK = flag.Int("adjust", 4, "feedback-adjust until this cardinality is tolerated")
		certify = flag.Int("certify", 5, "certify by exhaustive search through this cardinality")
	)
	flag.Parse()
	seeds := []uint64{2006, 2007, 2011}
	ctx := context.Background()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, seed := range seeds {
		start := time.Now()
		g, _, err := tornado.Generate(tornado.DefaultParams(), seed)
		if err != nil {
			log.Fatal(err)
		}
		g, reports, err := tornado.ImproveCtx(ctx, g, *adjustK, tornado.AdjustOptions{}, seed+1)
		if err != nil {
			log.Fatal(err)
		}
		wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: *certify, KeepGoing: false})
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("tornado96-%d", i+1)
		g.Name = name

		path := filepath.Join(*out, name+".graphml")
		if err := tornado.SaveGraphML(path, g); err != nil {
			log.Fatal(err)
		}
		cert := certText(seed, *adjustK, g, wc, len(reports))
		if err := os.WriteFile(filepath.Join(*out, name+".cert"), []byte(cert), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("%s: %s (%v)", name, firstFailureString(wc, *certify), time.Since(start).Round(time.Second))
	}
}

func firstFailureString(wc tornado.WorstCaseResult, certify int) string {
	if !wc.Found {
		return fmt.Sprintf("tolerates any %d losses", certify)
	}
	last := wc.PerK[len(wc.PerK)-1]
	return fmt.Sprintf("first failure %d (%d/%d cases)", wc.FirstFailure, last.FailureCount, last.Tested)
}

func certText(seed uint64, adjustK int, g *tornado.Graph, wc tornado.WorstCaseResult, clearedCardinalities int) string {
	s := fmt.Sprintf("graph: %s\nseed: %d\nadjusted-to: %d\ncleared-cardinalities: %d\n",
		g.Name, seed, adjustK, clearedCardinalities)
	s += fmt.Sprintf("edges: %d\navg-data-degree: %.3f\n", g.EdgeCount(), g.AvgDataDegree())
	for _, kr := range wc.PerK {
		s += fmt.Sprintf("k=%d: %d failures / %d combinations\n", kr.K, kr.FailureCount, kr.Tested)
	}
	if wc.Found {
		s += fmt.Sprintf("first-failure: %d\n", wc.FirstFailure)
		last := wc.PerK[len(wc.PerK)-1]
		for _, f := range last.Failures {
			s += fmt.Sprintf("critical-set: %v\n", f)
		}
	} else {
		s += "first-failure: none-found\n"
	}
	return s
}
