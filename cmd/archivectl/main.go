// Command archivectl drives the prototype archival storage system through
// a scripted fault-injection scenario: build a 96-device store over a
// profiled Tornado graph, upload objects, fail devices, read everything
// back through reconstruction, replace the drives, and scrub — the
// lifecycle of the stewarding system the paper proposes (§2.2, §6).
//
// Usage:
//
//	archivectl -objects 20 -size 100000 -fail 4 -seed 2006
//	archivectl -maid -poweron 24        # run the same scenario on a MAID shelf
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"os/signal"
	"syscall"

	"tornado"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("archivectl: ")

	var (
		seed     = flag.Uint64("seed", 2006, "graph generation seed")
		adjustK  = flag.Int("adjust", 3, "adjust the graph to tolerate this cardinality")
		objects  = flag.Int("objects", 10, "objects to store")
		size     = flag.Int("size", 50000, "bytes per object")
		block    = flag.Int("block", 4096, "stripe block size")
		failN    = flag.Int("fail", 4, "devices to fail mid-scenario")
		maidOn   = flag.Bool("maid", false, "run on a power-managed MAID shelf")
		powerOn  = flag.Int("poweron", 48, "MAID power budget (max spinning drives)")
		parallel = flag.Int("parallel", tornado.DefaultStreamParallelism,
			"stripe pipeline width for streaming puts/gets")
	)
	flag.Parse()
	if *objects < 1 {
		fmt.Fprintln(os.Stderr, "archivectl: -objects must be at least 1")
		flag.Usage()
		os.Exit(2)
	}

	// Ctrl-C cancels the graph adjustment and worst-case search — the
	// slow phases — via the ctx-first facade entry points.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	g, _, err := tornado.Generate(tornado.DefaultParams(), *seed)
	if err != nil {
		log.Fatal(err)
	}
	if *adjustK > 0 {
		if g, _, err = tornado.ImproveCtx(ctx, g, *adjustK, tornado.AdjustOptions{}, *seed+1); err != nil {
			log.Fatal(err)
		}
	}
	wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: *adjustK + 1})
	if err != nil {
		log.Fatal(err)
	}
	firstFailure := wc.FirstFailure
	if !wc.Found {
		firstFailure = *adjustK + 2
	}
	log.Printf("graph ready: %v (first failure %d)", g, firstFailure)

	devices := tornado.NewDevices(g.Total)
	cfg := tornado.ArchiveConfig{BlockSize: *block, FirstFailure: firstFailure}
	var store *tornado.Archive
	var shelf *tornado.Shelf
	if *maidOn {
		if shelf, err = tornado.NewShelf(devices, *powerOn); err != nil {
			log.Fatal(err)
		}
		store, err = tornado.NewArchiveWithBackend(g, tornado.NewShelfBackend(shelf), cfg)
		log.Printf("MAID shelf: %d devices, power budget %d", len(devices), *powerOn)
	} else {
		store, err = tornado.NewArchive(g, devices, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(*seed, 99))
	par := tornado.WithStreamParallelism(*parallel)
	payloads := map[string][]byte{}
	for i := 0; i < *objects; i++ {
		name := fmt.Sprintf("object-%03d", i)
		data := make([]byte, *size)
		for j := range data {
			data[j] = byte(rng.IntN(256))
		}
		if _, err := store.PutStream(ctx, name, bytes.NewReader(data), par); err != nil {
			log.Fatal(err)
		}
		payloads[name] = data
	}
	log.Printf("stored %d objects of %d bytes (%d stripes each)",
		*objects, *size, store.List()[0].Stripes)

	if *maidOn {
		shelf.ParkAll()
	}

	failed := devices.FailRandom(*failN, rng)
	log.Printf("failed devices: %v", failed)

	var totalAccessed, gets int
	var got bytes.Buffer
	for name, want := range payloads {
		got.Reset()
		_, stats, err := store.GetStream(ctx, name, &got, par)
		if err != nil {
			log.Fatalf("get %s after failures: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			log.Fatalf("get %s: payload corrupted", name)
		}
		totalAccessed += stats.DevicesAccessed
		gets++
	}
	log.Printf("read back all %d objects intact; avg %.1f devices accessed per get",
		gets, float64(totalAccessed)/float64(gets))
	if *maidOn {
		log.Printf("MAID spin-ups so far: %d (budget %d)", shelf.SpinUps(), shelf.Budget())
	}

	rep, err := store.ScrubCtx(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("scrub (inspect): %d stripes, %d at risk, %d unrecoverable",
		len(rep.Stripes), rep.AtRisk, rep.Unrecoverable)

	for _, id := range failed {
		devices[id].Replace()
	}
	rep, err = store.ScrubCtx(ctx, true)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("scrub (repair after replacement): %d blocks rewritten", rep.BlocksRepaired)

	rep, err = store.ScrubCtx(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	missing := 0
	for _, h := range rep.Stripes {
		missing += len(h.Missing)
	}
	log.Printf("final state: %d stripes, %d blocks missing, %d unrecoverable",
		len(rep.Stripes), missing, rep.Unrecoverable)
	fmt.Println("scenario complete: all data survived", len(failed), "device failures")
}
