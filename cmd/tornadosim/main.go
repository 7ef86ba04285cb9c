// Command tornadosim measures a graph's reconstruction-failure profile:
// for each number of offline devices, the fraction of random failure
// patterns that lose data (paper §3's 962-million-case test suite, with a
// configurable budget). Every point is sampled, except the cardinalities
// 1..5 of the default worst-case search, which are folded in as exact
// counts and listed whatever the window. Output is CSV suitable for
// plotting Figures 3–6; -summary prints the statistics read off it, among
// them the distribution of the reconstruction overhead (the shortest prefix
// of a random arrival order that decodes): its mean and its 50% and 99%
// points.
//
// Usage:
//
//	tornadosim -graph graph3.graphml -trials 100000 > profile.csv
//	tornadosim -seed 2006 -adjust 4 -trials 20000 -summary
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"tornado"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tornadosim: ")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command over its arguments: 0 on success, 1 when the work
// fails, 2 on a usage error (bad flags, or a -mink..-maxk window that holds
// no offline count).
func run(args []string, stdout, stderr io.Writer) int {
	log.SetOutput(stderr)
	fs := flag.NewFlagSet("tornadosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "GraphML graph to profile (overrides -seed)")
		seed      = fs.Uint64("seed", 2006, "generate a fresh 96-node graph from this seed")
		adjustK   = fs.Int("adjust", 0, "adjust the generated graph to tolerate this cardinality first")
		trials    = fs.Int64("trials", 0, "random arrival orders drawn, the trials of every sampled offline count (0 = 20000); with -lifetime, the lifetimes simulated (0 = 200)")
		minK      = fs.Int("mink", 1, "smallest offline count")
		maxK      = fs.Int("maxk", 0, "largest offline count (0 = all)")
		simSeed   = fs.Uint64("simseed", 1, "sampling seed")
		summary   = fs.Bool("summary", false, "print summary metrics instead of CSV")
		lifetime  = fs.Bool("lifetime", false, "simulate system lifetimes (discrete-event MTTDL) instead of the failure profile")
		lambda    = fs.Float64("lambda", 0.1, "lifetime: per-device failure rate per year")
		mu        = fs.Float64("mu", 12, "lifetime: per-repairman rebuild rate per year")
		repairmen = fs.Int("repairmen", 1, "lifetime: concurrent rebuilds (0 = no repair)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
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
		log.Print(err)
		return 1
	}
	log.Printf("profiling %v", g)

	if *lifetime {
		start := time.Now()
		res, err := tornado.SimulateLifetimeCtx(ctx, g, tornado.LifetimeOptions{
			Lambda: *lambda, Mu: *mu, Repairmen: *repairmen,
			Runs: int(*trials), Seed: *simSeed,
		})
		if err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("simulated %d lifetimes in %v", res.Runs, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(stdout, "mean time to data loss: %.4g years (%d runs, %d truncated)\n",
			res.MeanYears, res.Runs, res.Truncated)
		return 0
	}

	start := time.Now()
	p, err := tornado.ProfileCtx(ctx, g, tornado.ProfileOptions{
		Trials: *trials,
		MinK:   *minK,
		MaxK:   *maxK,
		Seed:   *simSeed,
	})
	if errors.Is(err, tornado.ErrEmptyWindow) {
		fmt.Fprintf(stderr, "tornadosim: -mink %d -maxk %d: no offline count of a %d-node graph is in that window\n", *minK, *maxK, g.Total)
		fs.Usage()
		return 2
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	// The rare low-k failures set P(fail), and only the exhaustive search
	// resolves them. A graph beyond the search's budget (or smaller than
	// DefaultMaxK) completes fewer cardinalities; those still fold in.
	wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{KeepGoing: true})
	if err != nil {
		log.Printf("exact points through k=%d only: %v", len(wc.PerK), err)
	}
	if err := p.AddExact(wc); err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("profiled and certified in %v", time.Since(start).Round(time.Millisecond))

	if *summary {
		fmt.Fprint(stdout, p.Report())
		return 0
	}

	fmt.Fprintln(stdout, "offline,failures,trials,fraction,exact")
	for k := 0; k <= g.Total; k++ {
		prop := p.Fail[k]
		if prop.Trials == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%d,%d,%d,%.9g,%v\n", k, prop.Hits, prop.Trials, prop.Estimate(), p.Exact[k])
	}
	return 0
}
