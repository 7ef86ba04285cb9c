// Command tornadosim measures a graph's reconstruction-failure profile:
// for each number of offline devices, the fraction of random failure
// patterns that lose data (paper §3's 962-million-case test suite, with a
// configurable budget). Output is CSV suitable for plotting Figures 3–6.
//
// Usage:
//
//	tornadosim -graph graph3.graphml -trials 100000 > profile.csv
//	tornadosim -seed 2006 -adjust 4 -trials 20000 -summary
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tornado"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tornadosim: ")

	var (
		graphPath  = flag.String("graph", "", "GraphML graph to profile (overrides -seed)")
		seed       = flag.Uint64("seed", 2006, "generate a fresh 96-node graph from this seed")
		adjustK    = flag.Int("adjust", 0, "adjust the generated graph to tolerate this cardinality first")
		trials     = flag.Int64("trials", 20000, "Monte Carlo trials per offline-node count")
		exhaustive = flag.Int64("exhaustive", 100000, "enumerate exactly when C(n,k) is at most this")
		minK       = flag.Int("mink", 1, "smallest offline count")
		maxK       = flag.Int("maxk", 0, "largest offline count (0 = all)")
		simSeed    = flag.Uint64("simseed", 1, "sampling seed")
		summary    = flag.Bool("summary", false, "print summary metrics instead of CSV")
		overhead   = flag.Bool("overhead", false, "measure reconstruction overhead (min random-order retrievals) instead of the failure profile")
		lifetime   = flag.Bool("lifetime", false, "simulate system lifetimes (discrete-event MTTDL) instead of the failure profile")
		lambda     = flag.Float64("lambda", 0.1, "lifetime: per-device failure rate per year")
		mu         = flag.Float64("mu", 12, "lifetime: per-repairman rebuild rate per year")
		repairmen  = flag.Int("repairmen", 1, "lifetime: concurrent rebuilds (0 = no repair)")
	)
	flag.Parse()
	ctx := context.Background()

	var g *tornado.Graph
	var err error
	if *graphPath != "" {
		g, err = tornado.LoadGraphML(*graphPath)
	} else {
		g, _, err = tornado.Generate(tornado.DefaultParams(), *seed)
		if err == nil && *adjustK > 0 {
			g, _, err = tornado.ImproveCtx(ctx, g, *adjustK, tornado.AdjustOptions{}, *seed+1)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("profiling %v", g)

	if *lifetime {
		start := time.Now()
		res, err := tornado.SimulateLifetimeCtx(ctx, g, tornado.LifetimeOptions{
			Lambda: *lambda, Mu: *mu, Repairmen: *repairmen,
			Runs: int(*trials), Seed: *simSeed,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("simulated %d lifetimes in %v", res.Runs, time.Since(start).Round(time.Millisecond))
		fmt.Printf("mean time to data loss: %.4g years (%d runs, %d truncated)\n",
			res.MeanYears, res.Runs, res.Truncated)
		return
	}

	if *overhead {
		start := time.Now()
		res, err := tornado.MeasureOverheadCtx(ctx, g, tornado.OverheadOptions{Trials: *trials, Seed: *simSeed})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("measured in %v", time.Since(start).Round(time.Millisecond))
		fmt.Printf("mean minimum retrievals: %.2f (overhead %.3f)\n", res.Mean(), res.MeanOverhead())
		fmt.Printf("median: %d  p99: %d\n", res.Quantile(0.5), res.Quantile(0.99))
		fmt.Println("retrievals,count")
		for v, c := range res.Counts.Counts {
			if c > 0 {
				fmt.Printf("%d,%d\n", v, c)
			}
		}
		return
	}

	start := time.Now()
	p, err := tornado.ProfileCtx(ctx, g, tornado.ProfileOptions{
		Trials:          *trials,
		ExhaustiveLimit: *exhaustive,
		MinK:            *minK,
		MaxK:            *maxK,
		Seed:            *simSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("profiled in %v", time.Since(start).Round(time.Millisecond))

	if *summary {
		fmt.Printf("graph:                    %s\n", g.Name)
		fmt.Printf("first observed failure:   %d offline nodes\n", p.FirstObservedFailure())
		avg := p.AvgNodesToReconstruct()
		fmt.Printf("avg nodes to reconstruct: %.2f (%.2f)\n", avg, avg/float64(g.Data))
		n50 := p.NodesForSuccessProbability(0.5)
		fmt.Printf("nodes for 50%% success:    %d (overhead %.2f)\n", n50, p.Overhead())
		pfail := tornado.SystemFailure(g.Total, 0.01, p.FailFraction)
		fmt.Printf("P(fail) at AFR 1%%:        %.4g\n", pfail)
		return
	}

	w := os.Stdout
	fmt.Fprintln(w, "offline,failures,trials,fraction,exact")
	for k := 0; k <= g.Total; k++ {
		prop := p.Fail[k]
		if prop.Trials == 0 {
			continue
		}
		fmt.Fprintf(w, "%d,%d,%d,%.9g,%v\n", k, prop.Hits, prop.Trials, prop.Estimate(), p.Exact[k])
	}
}
