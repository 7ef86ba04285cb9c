package steward

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"net/http/httptest"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/device"
	"tornado/internal/fedstore"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

// site spins up one in-process stewarding site.
type site struct {
	store   *archive.Store
	devices device.Array
	client  *Client
	srv     *Server
	httpSrv *httptest.Server
}

func newSite(t *testing.T, seed uint64, blockSize int) *site {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return newSiteWithGraph(t, g, blockSize)
}

func newSiteWithGraph(t *testing.T, g *graph.Graph, blockSize int) *site {
	t.Helper()
	devices := device.NewArray(g.Total)
	store, err := archive.New(g, devices, archive.Config{BlockSize: blockSize, FirstFailure: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(store)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &site{
		store:   store,
		devices: devices,
		client:  NewClientWithOptions(srv.URL, ClientOptions{HTTPClient: srv.Client()}),
		srv:     h,
		httpSrv: srv,
	}
}

// federate opens the one federated store over HTTP clients the way
// cmd/steward does: any single site carries a write.
func federate(clients ...*Client) (*fedstore.Store, error) {
	sites := make([]fedstore.Site, len(clients))
	for i, c := range clients {
		sites[i] = c
	}
	return fedstore.Open(ctx, sites, fedstore.Config{WriteQuorum: 1})
}

// wipe fails and replaces every device of the site: its media is gone, its
// object metadata survives.
func (s *site) wipe() {
	for _, d := range s.devices {
		d.Fail()
		d.Replace()
	}
}

func randPayload(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

func TestClientServerCRUD(t *testing.T) {
	s := newSite(t, 1, 64)
	c := s.client
	data := randPayload(900, 1)

	if err := c.Put(ctx, "docs/report.dat", data); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "docs/report.dat", data); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate put: %v", err)
	}
	got, err := c.Get(ctx, "docs/report.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %v", err)
	}
	obj, err := c.Stat(ctx, "docs/report.dat")
	if err != nil || obj.Size != 900 {
		t.Fatalf("stat: %+v %v", obj, err)
	}
	objs, err := c.List(ctx)
	if err != nil || len(objs) != 1 || objs[0].Name != "docs/report.dat" {
		t.Fatalf("list: %+v %v", objs, err)
	}
	if err := c.Delete(ctx, "docs/report.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "docs/report.dat"); !IsNotFound(err) {
		t.Errorf("get after delete: %v", err)
	}
	if err := c.Delete(ctx, "docs/report.dat"); !IsNotFound(err) {
		t.Errorf("double delete: %v", err)
	}
}

func TestClientLayoutAndGraph(t *testing.T) {
	s := newSite(t, 2, 128)
	lay, err := s.client.Layout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lay.BlockSize != 128 || lay.DataNodes != 48 || lay.NodesPerStripe != 96 {
		t.Errorf("layout: %+v", lay)
	}
	g, err := s.client.Graph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total != 96 || g.Validate() != nil {
		t.Errorf("graph over the wire: %v", g)
	}
	if g.EdgeCount() != s.store.Graph().EdgeCount() {
		t.Error("graph edges differ after transport")
	}
}

func TestClientBlocksAndShell(t *testing.T) {
	s := newSite(t, 3, 64)
	data := randPayload(500, 3)
	if err := s.client.Put(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	b, err := s.client.ReadBlock(ctx, "obj", 0, 0, nil)
	if err != nil || !bytes.Equal(b, data[:64]) {
		t.Fatalf("read block: %v", err)
	}
	if _, err := s.client.ReadBlock(ctx, "obj", 0, 9999, nil); !IsNotFound(err) {
		t.Errorf("oob block: %v", err)
	}
	// Shell + block-level restore on a second object.
	if err := s.client.PutShell(ctx, "copy", len(data), 1); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 96; node++ {
		src, err := s.client.ReadBlock(ctx, "obj", 0, node, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.client.WriteBlock(ctx, "copy", 0, node, src); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.client.Get(ctx, "copy")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("shell copy get: %v", err)
	}
}

func TestClientHealthAndScrub(t *testing.T) {
	s := newSite(t, 4, 64)
	if err := s.client.Put(ctx, "obj", randPayload(300, 4)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.client.Scrub(ctx, false)
	if err != nil || len(rep.Stripes) != 1 {
		t.Fatalf("health: %+v %v", rep, err)
	}
	// Kill and replace a device; scrub over the wire must repair.
	s.devices[7].Fail()
	s.devices[7].Replace()
	rep, err = s.client.Scrub(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired == 0 {
		t.Errorf("remote scrub repaired nothing: %+v", rep)
	}
}

func TestServerReportsDataLossAsGone(t *testing.T) {
	s := newSite(t, 5, 64)
	if err := s.client.Put(ctx, "obj", randPayload(100, 5)); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.devices {
		d.Fail()
	}
	_, err := s.client.Get(ctx, "obj")
	if !errors.Is(err, ErrDataLoss) {
		t.Errorf("err = %v, want ErrDataLoss", err)
	}
}

func TestReplicatorPutGetFallback(t *testing.T) {
	a := newSite(t, 10, 64)
	b := newSite(t, 11, 64)
	f, err := federate(a.client, b.client)
	if err != nil {
		t.Fatal(err)
	}
	if f.Sites() != 2 {
		t.Fatal("site count")
	}
	data := randPayload(1200, 10)
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	// Both sites hold it independently.
	for _, s := range []*site{a, b} {
		got, err := s.client.Get(ctx, "obj")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("site get: %v", err)
		}
	}
	// Destroy site A entirely: the store falls back to B.
	for _, d := range a.devices {
		d.Fail()
	}
	got, err := f.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fallback get: %v", err)
	}
	if err := f.DeleteCtx(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatorValidation(t *testing.T) {
	a := newSite(t, 12, 64)
	if _, err := federate(a.client); err == nil {
		t.Error("single site accepted")
	}
	mismatch := newSite(t, 13, 128)
	if _, err := federate(a.client, mismatch.client); err == nil {
		t.Error("mismatched block size accepted")
	}
}

// criticalSet finds a smallest failing erasure pattern of g.
func criticalSet(t *testing.T, g *graph.Graph) ([]int, []int) {
	t.Helper()
	wc, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !wc.Found {
		t.Skip("graph tolerates 4 losses; no cheap critical set for the exchange scenario")
	}
	last := wc.PerK[len(wc.PerK)-1]
	set := last.Failures[0]
	res := decode.New(g).Decode(set)
	return set, res.UnrecoveredData
}

// TestFederatedBlockExchange is the §5.3 headline with real bytes: both
// sites are hit by their own critical failure patterns, neither can serve
// the object, and the store recovers it by exchanging blocks.
func TestFederatedBlockExchange(t *testing.T) {
	a := newSite(t, 20, 64)
	b := newSite(t, 21, 64)
	setA, lostA := criticalSet(t, a.store.Graph())
	setB, lostB := criticalSet(t, b.store.Graph())
	// The scenario needs the two sites to lose different data blocks.
	if overlap(lostA, lostB) {
		t.Skipf("draws share lost blocks (%v vs %v)", lostA, lostB)
	}

	f, err := federate(a.client, b.client)
	if err != nil {
		t.Fatal(err)
	}
	data := randPayload(48*64, 20) // one full stripe
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	for _, v := range setA {
		a.devices[v].Fail()
	}
	for _, v := range setB {
		b.devices[v].Fail()
	}
	// Each site alone reports data loss.
	if _, err := a.client.Get(ctx, "obj"); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("site A should have lost data: %v", err)
	}
	if _, err := b.client.Get(ctx, "obj"); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("site B should have lost data: %v", err)
	}
	// The federation exchanges blocks and recovers. The write-back finds the
	// home devices still dead — the sites' answer, not an outage.
	got, err := f.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatalf("federated get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recovered payload differs")
	}
	for _, st := range f.Health() {
		if !st.Up {
			t.Errorf("a dead drive marked the whole site down: %+v", st)
		}
	}

	// Close the loop: replace dead drives, one pass, and each site can serve
	// alone again — from the other's data blocks, its own checks re-encoded.
	for _, v := range setA {
		a.devices[v].Replace()
	}
	for _, v := range setB {
		b.devices[v].Replace()
	}
	if _, err := f.PassCtx(ctx); err != nil {
		t.Fatal(err)
	}
	for i, s := range []*site{a, b} {
		back, err := s.client.Get(ctx, "obj")
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("site %d cannot serve after the pass: %v", i, err)
		}
	}
}

func overlap(a, b []int) bool {
	set := map[int]bool{}
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		if set[v] {
			return true
		}
	}
	return false
}

func TestExchangeRecoverFailsWhenTrulyGone(t *testing.T) {
	a := newSite(t, 30, 64)
	b := newSite(t, 31, 64)
	f, err := federate(a.client, b.client)
	if err != nil {
		t.Fatal(err)
	}
	data := randPayload(600, 30)
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	for _, d := range a.devices {
		d.Fail()
	}
	for _, d := range b.devices {
		d.Fail()
	}
	if _, err := f.GetCtx(ctx, "obj"); !errors.Is(err, ErrDataLoss) {
		t.Errorf("err = %v, want ErrDataLoss", err)
	}
}

func TestEscapedObjectNames(t *testing.T) {
	s := newSite(t, 40, 64)
	name := "dir with space/α/β.dat"
	data := randPayload(100, 40)
	if err := s.client.Put(ctx, name, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.client.Get(ctx, name)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("unicode name round trip: %v", err)
	}
}
