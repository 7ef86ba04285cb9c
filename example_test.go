package tornado_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"tornado"
)

// Generating a graph and certifying its fault tolerance is the library's
// core loop.
func ExampleGenerate() {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 2006)
	if err != nil {
		panic(err)
	}
	fmt.Println(g.Total, "nodes,", g.Data, "data")
	// A screened graph tolerates any 2 simultaneous losses.
	wc, err := tornado.WorstCaseCtx(context.Background(), g, tornado.WorstCaseOptions{MaxK: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("failure found up to k=2:", wc.Found)
	// Output:
	// 96 nodes, 48 data
	// failure found up to k=2: false
}

// Running a worst-case search as a durable campaign: progress is
// journaled per shard (an interrupted run resumes bit-identically), and an
// unchanged graph is answered from the fingerprint-keyed result cache.
func ExampleRunCampaignCtx() {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 2006)
	if err != nil {
		panic(err)
	}
	work, err := os.MkdirTemp("", "campaign")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(work)

	spec := tornado.CampaignSpec{Kind: tornado.CampaignWorstCase, MaxK: 2}
	opts := tornado.CampaignOptions{CacheDir: filepath.Join(work, "cache")}
	res, err := tornado.RunCampaignCtx(context.Background(), filepath.Join(work, "wc"), g, spec, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("failure found up to k=2:", res.WorstCase.Found, "cached:", res.Cached)

	// Same graph, same spec, fresh directory: served from the cache.
	res, err = tornado.RunCampaignCtx(context.Background(), filepath.Join(work, "wc2"), g, spec, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("failure found up to k=2:", res.WorstCase.Found, "cached:", res.Cached)
	// Output:
	// failure found up to k=2: false cached: false
	// failure found up to k=2: false cached: true
}

// Encoding and decoding real bytes through a certified shipped graph.
func ExampleLoadPrecompiled() {
	g, err := tornado.LoadPrecompiled("tornado96-1")
	if err != nil {
		panic(err)
	}
	c, err := tornado.NewCodec(g, 16)
	if err != nil {
		panic(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	blocks, err := c.Encode(payload)
	if err != nil {
		panic(err)
	}
	// Lose three blocks; peeling reconstruction recovers them.
	blocks[0], blocks[50], blocks[90] = nil, nil, nil
	decoded, err := c.Decode(blocks, len(payload))
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", bytes.Equal(decoded, payload))
	// Output:
	// recovered: true
}

// The analytic mirrored model is Equation (1) of the paper.
func ExampleMirroredFailGivenK() {
	// 48 mirror pairs (96 drives): losing 2 drives is fatal only when
	// they are a pair.
	fmt.Printf("%.6f\n", tornado.MirroredFailGivenK(48, 2))
	// Any 49 losses must kill a pair.
	fmt.Printf("%.0f\n", tornado.MirroredFailGivenK(48, 49))
	// Output:
	// 0.010526
	// 1
}

// Composing a failure profile with independent device failures yields the
// Table 5 reliability numbers.
func ExampleSystemFailure() {
	mirrored := func(k int) float64 { return tornado.MirroredFailGivenK(48, k) }
	p := tornado.SystemFailure(96, 0.01, mirrored)
	fmt.Printf("%.5f\n", p)
	// Output:
	// 0.00479
}

// Structural defects are the paper's §3.2 failure patterns.
func ExampleScanDefectsCtx() {
	g, err := tornado.GenerateUnscreened(tornado.DefaultParams(), 3)
	if err != nil {
		panic(err)
	}
	defects, err := tornado.ScanDefectsCtx(context.Background(), g, 3, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("raw random graph has defects:", len(defects) > 0)

	screened, _, err := tornado.Generate(tornado.DefaultParams(), 3)
	if err != nil {
		panic(err)
	}
	defects, err = tornado.ScanDefectsCtx(context.Background(), screened, 3, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("screened graph has defects:", len(defects) > 0)
	// Output:
	// raw random graph has defects: true
	// screened graph has defects: false
}

// Three sites, each with its own graph, behind one federated store: a read
// survives losing every device of one site, and RepairSiteCtx rebuilds that
// site from its peers.
func ExampleNewFederatedStore() {
	ctx := context.Background()
	sites := make([]*tornado.Archive, 3)
	for i := range sites {
		g, _, err := tornado.Generate(tornado.DefaultParams(), uint64(30+i))
		if err != nil {
			panic(err)
		}
		if sites[i], err = tornado.NewArchive(g, tornado.NewDevices(g.Total),
			tornado.ArchiveConfig{BlockSize: 64}); err != nil {
			panic(err)
		}
	}
	f, err := tornado.NewFederatedStore(sites, tornado.FederatedConfig{WriteQuorum: 2})
	if err != nil {
		panic(err)
	}
	data := bytes.Repeat([]byte("federated "), 300)
	if err := f.PutCtx(ctx, "doc", data); err != nil {
		panic(err)
	}

	// The disaster: every drive at site 0 dies. Reads fail over.
	for _, d := range sites[0].Devices() {
		d.Fail()
	}
	got, err := f.GetCtx(ctx, "doc")
	fmt.Println("read with site 0 dead:", err == nil && bytes.Equal(got, data))

	// Fresh drives, then rebuild site 0 from sites 1 and 2.
	for _, d := range sites[0].Devices() {
		d.Replace()
	}
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("missing after repair:", rep.MissingAfter, "unrecoverable:", rep.Unrecoverable)
	got, _, err = sites[0].GetCtx(ctx, "doc")
	fmt.Println("site 0 reads alone:", err == nil && bytes.Equal(got, data))
	// Output:
	// read with site 0 dead: true
	// missing after repair: 0 unrecoverable: 0
	// site 0 reads alone: true
}

// A chaos backend wraps any StorageBackend, here a MAID shelf, with seeded
// fault injection. Three nodes lost outright cost the read nothing: the
// store decodes around them.
func ExampleNewChaosBackend() {
	ctx := context.Background()
	g, err := tornado.LoadPrecompiled("tornado96-1")
	if err != nil {
		panic(err)
	}
	shelf, err := tornado.NewShelf(tornado.NewDevices(g.Total), g.Total)
	if err != nil {
		panic(err)
	}
	inj := tornado.NewChaosBackend(tornado.NewShelfBackend(shelf), tornado.ChaosConfig{Seed: 2006})
	store, err := tornado.NewArchiveWithBackend(g, inj, tornado.ArchiveConfig{BlockSize: 64})
	if err != nil {
		panic(err)
	}
	data := bytes.Repeat([]byte("chaos "), 400)
	if err := store.PutCtx(ctx, "doc", data); err != nil {
		panic(err)
	}

	inj.LoseNode(0)
	inj.LoseNode(50)
	inj.LoseNode(90)
	got, _, err := store.GetCtx(ctx, "doc")
	fmt.Println("lost nodes:", inj.LostNodes())
	fmt.Println("bit-exact:", err == nil && bytes.Equal(got, data))
	// Output:
	// lost nodes: [0 50 90]
	// bit-exact: true
}
