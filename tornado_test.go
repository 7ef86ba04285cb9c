package tornado_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"tornado"
	"tornado/internal/chaos"
	"tornado/internal/raid"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

// TestPaperPipeline exercises the public API end-to-end the way the paper
// does: generate → screen → adjust → certify → profile → reliability.
func TestPaperPipeline(t *testing.T) {
	g, st, err := tornado.Generate(tornado.DefaultParams(), 2006)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total != 96 || g.Data != 48 {
		t.Fatalf("graph shape: %v", g)
	}
	t.Logf("generation: %+v, avg data degree %.2f", st, g.AvgDataDegree())

	if defects, err := tornado.ScanDefectsCtx(ctx, g, 3, 0); err != nil || len(defects) != 0 {
		t.Fatalf("screened graph has defects: %v (%v)", defects, err)
	}

	// Adjust up to k=3 cheaply (the full k=4 clearing runs in the bench
	// harness and cmd/experiments).
	improved, reports, err := tornado.ImproveCtx(ctx, g, 3, tornado.AdjustOptions{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adjustment: %d cardinalities cleared", len(reports))

	wc, err := tornado.WorstCaseCtx(ctx, improved, tornado.WorstCaseOptions{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Found {
		t.Errorf("first failure %d <= 3 after ImproveCtx(3)", wc.FirstFailure)
	}

	prof, err := tornado.ProfileCtx(ctx, improved, tornado.ProfileOptions{
		Trials: 2000, MaxK: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	avg := prof.AvgNodesToReconstruct()
	if avg < 48 || avg > 96 {
		t.Errorf("average to reconstruct = %.2f, outside [48,96]", avg)
	}
	pfail := tornado.SystemFailure(96, 0.01, prof.FailFraction)
	mirror := tornado.SystemFailure(96, 0.01, func(k int) float64 { return tornado.MirroredFailGivenK(48, k) })
	t.Logf("P(fail): tornado %.3g vs mirrored %.3g", pfail, mirror)
	if pfail >= mirror {
		t.Errorf("tornado P(fail) %.3g should beat mirroring %.3g", pfail, mirror)
	}
}

func TestPublicCodecRoundTrip(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tornado.NewCodec(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tornado"), 100)
	blocks, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	blocks[3] = nil
	blocks[64] = nil
	got, err := c.Decode(blocks, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("round trip mismatch")
	}
}

func TestPublicGraphMLRoundTrip(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.graphml")
	if err := tornado.SaveGraphML(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := tornado.LoadGraphML(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total != g.Total || back.EdgeCount() != g.EdgeCount() {
		t.Error("GraphML round trip changed the graph")
	}
	var dot bytes.Buffer
	if err := tornado.WriteDOT(&dot, back, []int{0}); err != nil {
		t.Fatal(err)
	}
	if dot.Len() == 0 {
		t.Error("empty DOT output")
	}
}

func TestPublicArchiveFlow(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	store, err := tornado.NewArchive(g, tornado.NewDevices(g.Total), tornado.ArchiveConfig{
		BlockSize: 32, FirstFailure: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 500)
	if err := store.PutCtx(ctx, "doc", data); err != nil {
		t.Fatal(err)
	}
	store.Devices()[10].Fail()
	store.Devices()[60].Fail()
	got, stats, err := store.GetCtx(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("archive round trip mismatch")
	}
	t.Logf("get after 2 failures: %+v", stats)

	store.Devices()[10].Replace()
	store.Devices()[60].Replace()
	rep, err := store.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired == 0 {
		t.Error("scrub repaired nothing after replacement")
	}
}

// TestPublicService: NewService fronts exactly one archive — a Put/Get
// round-trips through it, and zero or two archives are refused.
func TestPublicService(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	archives := make([]*tornado.Archive, 2)
	for i := range archives {
		if archives[i], err = tornado.NewArchive(g, tornado.NewDevices(g.Total), tornado.ArchiveConfig{BlockSize: 32}); err != nil {
			t.Fatal(err)
		}
	}
	for _, stores := range [][]*tornado.Archive{nil, archives} {
		if _, err := tornado.NewService(stores, tornado.ServeConfig{}); err == nil {
			t.Errorf("NewService over %d archives succeeded", len(stores))
		}
	}
	svc, err := tornado.NewService(archives[:1], tornado.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := bytes.Repeat([]byte{0x3C, 0x96}, 900)
	if _, err := svc.Put(ctx, "tenant", "doc", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := svc.Get(ctx, "tenant", "doc", &got); err != nil || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("service round trip: %v", err)
	}
}

func TestPublicFederation(t *testing.T) {
	gA := raid.MirroredGraph(4)
	gB := raid.MirroredGraph(4)
	sys, err := tornado.NewFederation(gA, gB)
	if err != nil {
		t.Fatal(err)
	}
	if sys.TotalDevices() != 16 {
		t.Errorf("devices = %d", sys.TotalDevices())
	}
	if !sys.JointRecoverable([][]int{{0, 4}, {}}) {
		t.Error("partner should rescue a dead pair")
	}
	wc, err := tornado.WorstCaseCtx(ctx, gA, tornado.WorstCaseOptions{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs := tornado.CriticalSetsOf(gA, wc.PerK[1].Failures)
	det, err := sys.DetectFirstFailureCtx(ctx, [][]tornado.CriticalSet{cs, cs}, tornado.FederationSearchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if det.TotalErased != 4 {
		t.Errorf("mirrored federation first failure detected = %d, want 4", det.TotalErased)
	}
}

func TestPublicRetrievalAndMAID(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 13)
	if err != nil {
		t.Fatal(err)
	}
	devs := tornado.NewDevices(g.Total)
	shelf, err := tornado.NewShelf(devs, 10)
	if err != nil {
		t.Fatal(err)
	}
	avail := make([]bool, g.Total)
	for i := range avail {
		avail[i] = true
	}
	plan, cost, err := tornado.PlanRetrieval(g, avail, shelf.CostFunc())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 || cost <= 0 {
		t.Errorf("plan %v cost %v", plan, cost)
	}
	if err := shelf.EnsureOn(plan[:5]); err != nil {
		t.Fatal(err)
	}
	if shelf.OnlineCount() == 0 {
		t.Error("nothing spinning")
	}
}

func TestRecoverableHelper(t *testing.T) {
	g := raid.MirroredGraph(4)
	d := tornado.NewDecoder(g)
	if !d.Recoverable([]int{0}) {
		t.Error("single loss should be recoverable")
	}
	if d.Recoverable([]int{0, 4}) {
		t.Error("dead pair should fail")
	}
	if !d.Recoverable([]int{1}) || d.Recoverable([]int{1, 5}) {
		t.Error("decoder helper wrong")
	}
}

func TestGenerateUnscreenedPublic(t *testing.T) {
	g, err := tornado.GenerateUnscreened(tornado.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicFederatedStore(t *testing.T) {
	sites := make([]*tornado.Archive, 3)
	devices := make([]tornado.DeviceArray, 3)
	for i := range sites {
		g, _, err := tornado.Generate(tornado.DefaultParams(), uint64(30+i))
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = tornado.NewDevices(g.Total)
		sites[i], err = tornado.NewArchive(g, devices[i], tornado.ArchiveConfig{BlockSize: 32})
		if err != nil {
			t.Fatal(err)
		}
	}
	wan := chaos.NewWAN(chaos.WANConfig{Sites: 3, Seed: 9})
	f, err := tornado.NewFederatedStore(sites, tornado.FederatedConfig{WriteQuorum: 2, WAN: wan})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A, 0xC3}, 700)
	if err := f.PutCtx(context.Background(), "doc", data); err != nil {
		t.Fatal(err)
	}

	// Failover: reads survive losing one site outright.
	wan.LoseSite(1)
	got, err := f.GetCtx(context.Background(), "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get with site 1 down: %v", err)
	}
	wan.RestoreSite(1)

	// Disaster: wipe every device at site 0 and repair it from its peers.
	for id := range devices[0] {
		devices[0][id].Fail()
		devices[0][id].Replace()
	}
	rep, err := f.RepairSiteCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Errorf("residue after site repair: %+v", rep)
	}
	if rep.Exchange.BytesWritten == 0 {
		t.Error("site repair moved zero bytes")
	}
	got, _, err = sites[0].GetCtx(ctx, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("victim site read after repair: %v", err)
	}
}
