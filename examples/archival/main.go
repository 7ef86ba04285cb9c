// Archival example: a 96-device archival object store protected by an
// adjusted Tornado Code graph, surviving progressive device failures with
// proactive scrubbing — the single-site system of paper §2.2/§6.
//
// The scenario: upload a document collection, fail drives one at a time,
// watch the scrubber's margin-to-first-failure reports, replace drives,
// and verify no object was ever lost.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"tornado"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// Build and certify the erasure graph: adjust until any 3 losses are
	// tolerated, then certify the first-failure point.
	g, _, err := tornado.Generate(tornado.DefaultParams(), 2011)
	if err != nil {
		log.Fatal(err)
	}
	g, _, err = tornado.ImproveCtx(ctx, g, 3, tornado.AdjustOptions{}, 12)
	if err != nil {
		log.Fatal(err)
	}
	wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: 4})
	if err != nil {
		log.Fatal(err)
	}
	firstFailure := wc.FirstFailure
	if !wc.Found {
		firstFailure = 5
	}
	fmt.Printf("erasure graph: %v\n", g)
	fmt.Printf("certified first failure: %d devices\n\n", firstFailure)

	devices := tornado.NewDevices(g.Total)
	store, err := tornado.NewArchive(g, devices, tornado.ArchiveConfig{
		BlockSize:    1024,
		FirstFailure: firstFailure,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Upload a collection.
	rng := rand.New(rand.NewPCG(42, 0))
	originals := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("records/%04d.dat", i)
		data := make([]byte, 30000+rng.IntN(90000))
		for j := range data {
			data[j] = byte(rng.IntN(256))
		}
		if err := store.PutCtx(ctx, name, data); err != nil {
			log.Fatal(err)
		}
		originals[name] = data
	}
	fmt.Printf("uploaded %d objects\n", len(originals))

	// Fail devices one at a time; after each failure, scrub and read a
	// random object back through reconstruction.
	var failed []int
	for round := 1; round <= firstFailure-1; round++ {
		id := rng.IntN(g.Total)
		for devices[id].State() == tornado.DeviceFailed {
			id = rng.IntN(g.Total)
		}
		devices[id].Fail()
		failed = append(failed, id)

		rep, err := store.ScrubCtx(ctx, false)
		if err != nil {
			log.Fatal(err)
		}
		minMargin := firstFailure
		for _, h := range rep.Stripes {
			if h.Margin < minMargin {
				minMargin = h.Margin
			}
		}
		fmt.Printf("round %d: failed device %d (total %d down); min stripe margin %d, %d at risk, %d unrecoverable\n",
			round, id, len(failed), minMargin, rep.AtRisk, rep.Unrecoverable)

		// Every object must still read back intact.
		for name, want := range originals {
			got, _, err := store.GetCtx(ctx, name)
			if err != nil {
				log.Fatalf("object %s lost after %d failures: %v", name, len(failed), err)
			}
			if !bytes.Equal(got, want) {
				log.Fatalf("object %s corrupted", name)
			}
		}
	}
	fmt.Printf("\nall objects intact with %d devices down\n", len(failed))

	// Operations replaces the dead drives; the scrubber repopulates them
	// before the next failure can push a stripe past the margin.
	for _, id := range failed {
		devices[id].Replace()
	}
	rep, err := store.ScrubCtx(ctx, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaced %d drives; scrub rewrote %d blocks\n", len(failed), rep.BlocksRepaired)

	rep, err = store.ScrubCtx(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	missing := 0
	for _, h := range rep.Stripes {
		missing += len(h.Missing)
	}
	fmt.Printf("final scrub: %d stripes fully populated (%d blocks missing)\n", len(rep.Stripes), missing)
}
