// Command chaos runs seeded fault-injection soak campaigns against the
// archive data path and enforces the archival invariants end to end: every
// Get returns bit-exact data or a definitive error (never silent
// corruption), every corrupt frame served by the injector is detected, and
// after the injector quiesces a repair scrub converges the store back to
// zero missing blocks.
//
// Usage:
//
//	chaos [flags]
//
//	  -seed N        first campaign seed (default 1)
//	  -campaigns N   number of campaigns; seeds are seed, seed+1, ... (default 10)
//	  -ops N         operations per campaign (default 400)
//	  -nodes N       tornado graph size (default 48)
//	  -maid          run over the power-managed MAID shelf backend
//	  -heavy         multiply all fault rates by -heavy-factor
//	  -heavy-factor  rate multiplier used with -heavy (default 4)
//	  -v             verbose per-op commentary
//
// The same seed always produces the identical fault schedule, operation
// mix, and report fingerprint. After the per-seed lines a totals line gives
// the campaigns run, their Gets, the data-loss Gets and their share, and
// the seeds whose report failed its Check. Exit status is non-zero if any
// campaign violates an invariant.
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
	log.SetPrefix("chaos: ")

	seed := flag.Uint64("seed", 1, "first campaign seed")
	campaigns := flag.Int("campaigns", 10, "number of campaigns to run")
	ops := flag.Int("ops", 400, "operations per campaign")
	nodes := flag.Int("nodes", 48, "tornado graph size (total nodes)")
	useMAID := flag.Bool("maid", false, "run over the power-managed MAID shelf backend")
	heavy := flag.Bool("heavy", false, "multiply all fault rates by -heavy-factor")
	heavyFactor := flag.Float64("heavy-factor", 4, "rate multiplier used with -heavy")
	verbose := flag.Bool("v", false, "verbose per-op commentary")
	flag.Parse()

	faults := tornado.DefaultSoakFaults()
	if *heavy {
		f := *heavyFactor
		faults.BitFlipRate *= f
		faults.ReadCorruptRate *= f
		faults.TruncateRate *= f
		faults.TornWriteRate *= f
		faults.ReadErrRate *= f
		faults.WriteErrRate *= f
		faults.NodeLossRate *= f
		faults.FlapRate *= f
	}

	violations, gets, dataLoss := 0, 0, 0
	var checkFailed []uint64
	for i := 0; i < *campaigns; i++ {
		cfg := tornado.SoakConfig{
			Seed:       *seed + uint64(i),
			Ops:        *ops,
			TotalNodes: *nodes,
			MAID:       *useMAID,
			Faults:     faults,
		}
		if *verbose {
			cfg.Log = os.Stderr
		}
		rep, err := tornado.RunSoakCtx(context.Background(), cfg)
		if err != nil {
			log.Fatalf("campaign seed %d: harness error: %v", cfg.Seed, err)
		}

		gets += rep.Gets
		dataLoss += rep.DataLossGets
		verdict := "ok"
		if err := rep.Check(); err != nil {
			checkFailed = append(checkFailed, rep.Seed)
			if *heavy {
				// Past the design envelope convergence is forfeit; only the
				// detection invariants remain binding.
				switch {
				case rep.SilentCorruptions != 0, rep.FinalVerifyFailures != 0,
					rep.DetectedCorrupt != rep.ServedCorrupt:
					verdict = fmt.Sprintf("VIOLATION: %v", err)
					violations++
				default:
					verdict = fmt.Sprintf("degraded (allowed under -heavy): %v", err)
				}
			} else {
				verdict = fmt.Sprintf("VIOLATION: %v", err)
				violations++
			}
		}

		fmt.Printf("seed %-6d  puts=%d(+%d rejected) gets=%d dataloss=%d scrubs=%d "+
			"fails=%d/%d  served=%d detected=%d readrepair=%d quarantine=%d  "+
			"fingerprint=%.12s  %s\n",
			rep.Seed, rep.Puts, rep.RejectedPuts, rep.Gets, rep.DataLossGets,
			rep.Scrubs, rep.DeviceFails, rep.DeviceReplacements,
			rep.ServedCorrupt, rep.DetectedCorrupt, rep.ReadRepairs,
			rep.QuarantineEvents, rep.Fingerprint, verdict)
	}

	share := 0.0
	if gets > 0 {
		share = float64(dataLoss) / float64(gets)
	}
	fmt.Printf("totals: campaigns=%d gets=%d dataloss=%d (%.2f%%) check-failed=%v\n",
		*campaigns, gets, dataLoss, 100*share, checkFailed)

	if violations > 0 {
		log.Fatalf("%d of %d campaigns violated an invariant", violations, *campaigns)
	}
	fmt.Printf("all %d campaigns upheld the invariants\n", *campaigns)
}
