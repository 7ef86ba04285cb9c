// Command tornadogen generates Tornado Code graphs: construct from a seed,
// screen and repair structural defects, optionally run the feedback
// adjustment until a target cardinality is tolerated, and write the result
// as GraphML (and optionally Graphviz DOT).
//
// Node counts above 1024 switch to the streaming construction path:
// O(edges) stub-shuffle wiring, screened for closed sets of up to 3 data
// nodes like every size, so archival-scale graphs (n = 10,000–100,000)
// generate in well under a second.
//
// Usage:
//
//	tornadogen -nodes 96 -seed 2006 -adjust 4 -out graph3.graphml -dot graph3.dot
//	tornadogen -nodes 10000 -seed 2006 -out big.graphml
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
	log.SetPrefix("tornadogen: ")

	var (
		nodes      = flag.Int("nodes", 96, "total node count (rate 1/2: half are data)")
		seed       = flag.Uint64("seed", 2006, "generation seed")
		heavyTailD = flag.Int("d", 16, "heavy-tail truncation D (D=16 gives avg data degree ~3.6)")
		adjustK    = flag.Int("adjust", 0, "run feedback adjustment until this cardinality is tolerated (0 = skip)")
		unscreened = flag.Bool("unscreened", false, "skip defect screening (paper's raw baseline)")
		out        = flag.String("out", "", "write GraphML to this path (default stdout)")
		dotPath    = flag.String("dot", "", "also write Graphviz DOT to this path")
	)
	flag.Parse()

	p := tornado.DefaultParams()
	p.TotalNodes = *nodes
	p.HeavyTailD = *heavyTailD

	var g *tornado.Graph
	var err error
	if *unscreened {
		g, err = tornado.GenerateUnscreened(p, *seed)
		if err == nil {
			log.Printf("generated unscreened %v", g)
			// Only cancellation fails a scan, and nothing cancels this one.
			if defects, _ := tornado.ScanDefectsCtx(context.Background(), g, 3, 0); len(defects) > 0 {
				log.Printf("warning: %d structural defects present (first: %v)", len(defects), defects[0])
			}
		}
	} else {
		var st tornado.GenStats
		g, st, err = tornado.Generate(p, *seed)
		if err == nil {
			log.Printf("generated %v (attempts %d, discarded %d, repairs %d)",
				g, st.Attempts, st.Discarded, st.Rewires)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	if *adjustK > 0 {
		improved, reports, err := tornado.ImproveCtx(context.Background(), g, *adjustK, tornado.AdjustOptions{}, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
		g = improved
		for _, r := range reports {
			log.Printf("adjustment k=%d: %d -> %d failing sets in %d rounds (cleared=%v)",
				r.K, r.InitialFailures, r.FinalFailures, r.Rounds, r.Cleared)
		}
	}

	if *out == "" {
		if err := tornado.WriteGraphML(os.Stdout, g); err != nil {
			log.Fatal(err)
		}
	} else {
		if err := tornado.SaveGraphML(*out, g); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tornado.WriteDOT(f, g, nil); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *dotPath)
	}
	fmt.Fprintf(os.Stderr, "%s\n", g)
}
