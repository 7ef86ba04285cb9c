// Command campaign runs the paper's bulk testing workloads — exhaustive
// worst-case searches, Monte Carlo reconstruction profiles (§3), and
// archival-scale sampled certifications — as durable, resumable campaigns:
// progress is journaled per shard, Ctrl-C is safe, and an unchanged graph
// is answered from the result cache.
//
// Usage:
//
//	campaign run -dir wc96 -kind worstcase -seed 2006 -maxk 5
//	campaign run -dir wc7 -kind worstcase -graph precompiled/tornado96-1.graphml -maxk 7 -keepgoing -failures 16
//	campaign run -dir prof96 -kind profile -graph graph3.graphml -trials 100000
//	campaign run -dir cert10k -kind sampled -graph big.graphml -mink 5 -maxk 5 -epsilon 1e-4
//	campaign resume -dir wc96
//	campaign status -dir wc96
//
// Interrupt a run with Ctrl-C and `campaign resume` continues where it
// stopped, producing a result bit-identical to an uninterrupted run. With
// -cache, re-running an unchanged graph returns instantly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tornado"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command over its arguments: 0 on success, 1 when the work
// fails, 2 on a usage error (no or an unknown subcommand, bad flags, or a
// -mink..-maxk window that holds no cardinality).
func run(args []string, stdout, stderr io.Writer) int {
	log.SetOutput(stderr)
	if len(args) < 1 {
		return usage(stderr)
	}
	sub, args := args[0], args[1:]

	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir       = fs.String("dir", "", "campaign directory (journal, manifest, result)")
		cacheDir  = fs.String("cache", "", "result cache directory (empty disables caching)")
		workers   = fs.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		kind      = fs.String("kind", "worstcase", "workload: worstcase, profile, or sampled")
		graphPath = fs.String("graph", "", "GraphML graph to test (overrides -seed)")
		seed      = fs.Uint64("seed", 2006, "generate a fresh graph from this seed")
		nodes     = fs.Int("nodes", 0, "with -seed: total node count of the generated graph (default 96; large counts use the streaming path)")
		adjustK   = fs.Int("adjust", 0, "adjust the generated graph to tolerate this cardinality first")
		maxK      = fs.Int("maxk", 0, "largest erasure cardinality examined")
		keepGoing = fs.Bool("keepgoing", false, "worstcase: search all cardinalities past the first failure")
		failures  = fs.Int("failures", 0, "worstcase/sampled: failing sets recorded per cardinality (worstcase prints them)")
		trials    = fs.Int64("trials", 0, "profile: random arrival orders, the trials of every sampled cardinality; sampled: trial budget per cardinality")
		mcSeed    = fs.Uint64("mcseed", 2006, "profile/sampled: sampling seed")
		minK      = fs.Int("mink", 0, "profile/sampled: smallest erasure cardinality examined")
		epsilon   = fs.Float64("epsilon", 0, "sampled: stop once the 95% CI half-width reaches this (negative runs the full budget)")
		shardSize = fs.Int64("shardsize", 0, "profile/sampled: trials per checkpoint shard")
		quiet     = fs.Bool("quiet", false, "suppress per-shard progress lines")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dir == "" {
		log.Print("-dir is required")
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := tornado.CampaignOptions{Workers: *workers, CacheDir: *cacheDir}
	if !*quiet {
		last := time.Now()
		opts.Progress = func(st tornado.CampaignStatus) {
			// Throttle to roughly one line per second; always print the last.
			if !st.Completed && time.Since(last) < time.Second {
				return
			}
			last = time.Now()
			pct := 0.0
			if st.WorkTotal > 0 {
				pct = 100 * float64(st.WorkDone) / float64(st.WorkTotal)
			}
			log.Printf("shards %d/%d, %d combinations (%.1f%%)",
				st.DoneShards, st.TotalShards, st.WorkDone, pct)
		}
	}

	switch sub {
	case "run":
		g, err := loadGraph(ctx, *graphPath, *seed, *nodes, *adjustK)
		if err != nil {
			log.Print(err)
			return 1
		}
		spec := tornado.CampaignSpec{
			Kind:      tornado.CampaignKind(*kind),
			MaxK:      *maxK,
			ShardSize: *shardSize,
		}
		switch spec.Kind {
		case tornado.CampaignWorstCase:
			spec.MaxFailures = *failures
			spec.KeepGoing = *keepGoing
		case tornado.CampaignProfile:
			spec.Trials = *trials
			spec.Seed = *mcSeed
			spec.MinK = *minK
		case tornado.CampaignSampled:
			spec.Trials = *trials
			spec.Seed = *mcSeed
			spec.MinK = *minK
			spec.Epsilon = *epsilon
			spec.MaxFailures = *failures
		}
		start := time.Now()
		res, err := tornado.RunCampaignCtx(ctx, *dir, g, spec, opts)
		if errors.Is(err, tornado.ErrEmptyWindow) {
			fmt.Fprintf(stderr, "campaign: -mink %d -maxk %d: no cardinality of a %d-node graph is in that window\n", *minK, *maxK, g.Total)
			fs.Usage()
			return 2
		}
		if err != nil {
			if ctx.Err() != nil {
				log.Printf("interrupted; completed shards are journaled — `campaign resume -dir %s` continues", *dir)
			} else {
				log.Print(err)
			}
			return 1
		}
		report(stdout, res, time.Since(start), *failures)

	case "resume":
		start := time.Now()
		res, err := tornado.ResumeCampaignCtx(ctx, *dir, opts)
		if err != nil {
			if ctx.Err() != nil {
				log.Printf("interrupted again; rerun `campaign resume -dir %s`", *dir)
			} else {
				log.Print(err)
			}
			return 1
		}
		report(stdout, res, time.Since(start), *failures)

	case "status":
		st, err := tornado.CampaignProgress(*dir)
		if err != nil {
			log.Print(err)
			return 1
		}
		state := "in progress"
		if st.Completed {
			state = "completed"
		} else if st.DoneShards == 0 {
			state = "not started"
		}
		fmt.Fprintf(stdout, "campaign:    %s (%s)\n", st.Dir, state)
		fmt.Fprintf(stdout, "kind:        %s\n", st.Kind)
		fmt.Fprintf(stdout, "fingerprint: %s\n", st.Fingerprint)
		fmt.Fprintf(stdout, "shards:      %d/%d\n", st.DoneShards, st.TotalShards)
		fmt.Fprintf(stdout, "work:        %d/%d combinations+trials\n", st.WorkDone, st.WorkTotal)

	default:
		return usage(stderr)
	}
	return 0
}

func usage(w io.Writer) int {
	fmt.Fprintln(w, `usage: campaign {run|resume|status} -dir <dir> [flags]
  run     start a fresh campaign (see -kind, -graph/-seed, -maxk, -trials)
  resume  continue an interrupted campaign from its journal
  status  report shard progress without running anything`)
	return 2
}

func loadGraph(ctx context.Context, path string, seed uint64, nodes, adjustK int) (*tornado.Graph, error) {
	var g *tornado.Graph
	var err error
	if path != "" {
		g, err = tornado.LoadGraphML(path)
	} else {
		p := tornado.DefaultParams()
		if nodes > 0 {
			p.TotalNodes = nodes
		}
		g, _, err = tornado.Generate(p, seed)
		if err == nil && adjustK > 0 {
			g, _, err = tornado.ImproveCtx(ctx, g, adjustK, tornado.AdjustOptions{}, seed+1)
		}
	}
	if err != nil {
		return nil, err
	}
	log.Printf("testing %v", g)
	return g, nil
}

// report prints the result; a worst-case search also prints up to
// printFailures of each cardinality's recorded failing sets.
func report(w io.Writer, res *tornado.CampaignResult, elapsed time.Duration, printFailures int) {
	if res.Cached {
		log.Printf("served from cache (fingerprint %.12s…)", res.Fingerprint)
	}
	switch {
	case res.WorstCase != nil:
		for _, kr := range res.WorstCase.PerK {
			fmt.Fprintf(w, "k=%d: %d failures / %d combinations\n", kr.K, kr.FailureCount, kr.Tested)
			for _, f := range kr.Failures[:min(printFailures, len(kr.Failures))] {
				fmt.Fprintf(w, "  failing set: %v\n", f)
			}
		}
		if res.WorstCase.Found {
			fmt.Fprintf(w, "worst case failure scenario: %d lost nodes\n", res.WorstCase.FirstFailure)
		} else {
			fmt.Fprintf(w, "no failure found up to the examined cardinality\n")
		}
	case res.Profile != nil:
		fmt.Fprint(w, res.Profile.Report())
	case res.Sampled != nil:
		for _, sr := range res.Sampled {
			lo, hi := sr.Wilson()
			fmt.Fprintf(w, "k=%d: P(fail) = %.3g, 95%% CI [%.3g, %.3g] over %d trials (%.1f%% screened, %d blocks)\n",
				sr.K, sr.Estimate(), lo, hi, sr.Tally.Trials, 100*sr.ScreenRate(), len(sr.Rounds))
		}
	}
	fmt.Fprintf(w, "%d combinations+trials evaluated in %v (%.0f/s)\n",
		res.WorkDone, elapsed.Round(time.Millisecond), float64(res.WorkDone)/elapsed.Seconds())
}
