package fedstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/graph"
	"tornado/internal/raid"
)

// ctx is the context of every test call that needs none of its own.
var ctx = context.Background()

// site is one test site: its store, raw devices, and transparent injector
// (zero rates — used only for explicit LoseNode/VoidNode manipulation).
type site struct {
	store *archive.Store
	devs  device.Array
	inj   *chaos.Injector
}

func newSiteWithGraph(t *testing.T, g *graph.Graph, blockSize int) site {
	t.Helper()
	devs := device.NewArray(g.Total)
	inj := chaos.Wrap(archive.NewArrayBackend(devs), chaos.Config{})
	store, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	return site{store: store, devs: devs, inj: inj}
}

func tornadoGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	p := core.DefaultParams()
	p.TotalNodes = 32
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fedOver(t *testing.T, cfg Config, sites ...site) (*Store, []site) {
	t.Helper()
	stores := make([]*archive.Store, len(sites))
	for i, s := range sites {
		stores[i] = s.store
	}
	f, err := New(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, sites
}

func testPayload(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

// wipeSite destroys every device at a site (blank replacements), keeping
// the store's object metadata — the disaster model where the steward
// database survives but the media does not.
func wipeSite(s site) {
	for i := range s.devs {
		s.devs[i].Fail()
		s.inj.VoidNode(i)
		s.devs[i].Replace()
	}
}

func TestNewValidation(t *testing.T) {
	a := newSiteWithGraph(t, tornadoGraph(t, 1), 32)
	if _, err := New([]*archive.Store{a.store}, Config{}); err == nil {
		t.Error("single site accepted")
	}
	b := newSiteWithGraph(t, tornadoGraph(t, 2), 64) // block size differs
	if _, err := New([]*archive.Store{a.store, b.store}, Config{}); err == nil {
		t.Error("mismatched block sizes accepted")
	}
	w := chaos.NewWAN(chaos.WANConfig{Sites: 3})
	c := newSiteWithGraph(t, tornadoGraph(t, 3), 32)
	if _, err := New([]*archive.Store{a.store, c.store}, Config{WAN: w}); err == nil {
		t.Error("WAN site-count mismatch accepted")
	}
}

func TestPutGetSiteFailover(t *testing.T) {
	w := chaos.NewWAN(chaos.WANConfig{Sites: 2})
	f, _ := fedOver(t, Config{WAN: w, WriteQuorum: 2},
		newSiteWithGraph(t, tornadoGraph(t, 1), 32),
		newSiteWithGraph(t, tornadoGraph(t, 2), 32))
	data := testPayload(900, 5)
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	// Healthy read.
	got, err := f.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("healthy get: err=%v exact=%v", err, bytes.Equal(got, data))
	}
	// Site 0 gone: reads fail over to site 1.
	w.LoseSite(0)
	got, err = f.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("failover get: err=%v exact=%v", err, bytes.Equal(got, data))
	}
	// Both gone: definitive error, not silence.
	w.LoseSite(1)
	if _, err := f.GetCtx(ctx, "obj"); !errors.Is(err, ErrNoSite) {
		t.Errorf("all-down get err = %v, want ErrNoSite", err)
	}
	w.RestoreSite(0)
	w.RestoreSite(1)
	if _, err := f.GetCtx(ctx, "missing"); !errors.Is(err, archive.ErrNotFound) {
		t.Errorf("missing object err = %v, want ErrNotFound", err)
	}
}

func TestPutQuorumRefusalAndRollback(t *testing.T) {
	w := chaos.NewWAN(chaos.WANConfig{Sites: 3})
	f, sites := fedOver(t, Config{WAN: w}, // quorum defaults to all 3
		newSiteWithGraph(t, tornadoGraph(t, 1), 32),
		newSiteWithGraph(t, tornadoGraph(t, 2), 32),
		newSiteWithGraph(t, tornadoGraph(t, 3), 32))
	w.LoseSite(2)
	err := f.PutCtx(ctx, "obj", testPayload(500, 1))
	if !errors.Is(err, ErrSiteQuorum) {
		t.Fatalf("put below quorum err = %v, want ErrSiteQuorum", err)
	}
	// Nothing may remain anywhere.
	for i, s := range sites {
		if _, err := s.store.Stat("obj"); !errors.Is(err, archive.ErrNotFound) {
			t.Errorf("site %d kept the refused object (err=%v)", i, err)
		}
	}
	if f.Metrics().Counter("fedstore.put.quorum_refused").Value() == 0 {
		t.Error("quorum refusal not counted")
	}

	// Quorum 2 allows degraded writes to the two surviving sites.
	f2, sites2 := fedOver(t, Config{WAN: w, WriteQuorum: 2},
		newSiteWithGraph(t, tornadoGraph(t, 4), 32),
		newSiteWithGraph(t, tornadoGraph(t, 5), 32),
		newSiteWithGraph(t, tornadoGraph(t, 6), 32))
	data := testPayload(500, 2)
	if err := f2.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	if _, err := sites2[2].store.Stat("obj"); !errors.Is(err, archive.ErrNotFound) {
		t.Error("down site somehow received the object")
	}
	got, err := f2.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded get: err=%v", err)
	}
}

// TestExchangeRecoversWhatNoSiteCanAlone is the live version of the
// paper's block exchange: each site's losses defeat that site alone, but
// the federation recovers by shipping data blocks between sites.
func TestExchangeRecoversWhatNoSiteCanAlone(t *testing.T) {
	g := raid.MirroredGraph(4) // data 0..3 mirrored at 4..7
	a := newSiteWithGraph(t, g, 32)
	b := newSiteWithGraph(t, g.Clone(), 32)
	f, _ := fedOver(t, Config{}, a, b)
	data := testPayload(4*32, 7) // one full stripe
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	// Site A loses both copies of block 0; site B both copies of block 1.
	a.inj.LoseNode(0)
	a.inj.LoseNode(4)
	b.inj.LoseNode(1)
	b.inj.LoseNode(5)
	if _, _, err := a.store.GetCtx(ctx, "obj"); !errors.Is(err, archive.ErrDataLoss) {
		t.Fatalf("site A alone should report data loss, got %v", err)
	}
	if _, _, err := b.store.GetCtx(ctx, "obj"); !errors.Is(err, archive.ErrDataLoss) {
		t.Fatalf("site B alone should report data loss, got %v", err)
	}
	got, err := f.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("federated get: err=%v exact=%v", err, bytes.Equal(got, data))
	}
	if f.Metrics().Counter("fedstore.exchange.stripes").Value() == 0 {
		t.Error("exchange not counted")
	}
	// The exchange traffic must appear in the sites' federation meters.
	if f.SiteFederationTotals().Zero() {
		t.Error("no federation-cause bytes billed at the sites")
	}
}

func TestPartitionBlocksExchange(t *testing.T) {
	g := raid.MirroredGraph(4)
	w := chaos.NewWAN(chaos.WANConfig{Sites: 2})
	a := newSiteWithGraph(t, g, 32)
	b := newSiteWithGraph(t, g.Clone(), 32)
	f, _ := fedOver(t, Config{WAN: w}, a, b)
	data := testPayload(4*32, 8)
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	a.inj.LoseNode(0)
	a.inj.LoseNode(4)
	b.inj.LoseNode(1)
	b.inj.LoseNode(5)
	// With the inter-site link cut, neither site can be rescued.
	w.Partition(0, 1)
	if _, err := f.GetCtx(ctx, "obj"); !errors.Is(err, archive.ErrDataLoss) {
		t.Fatalf("partitioned get err = %v, want ErrDataLoss", err)
	}
	// Healing the link heals the read.
	w.HealLink(0, 1)
	got, err := f.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-heal get: err=%v", err)
	}
}

func TestRepairSiteAfterFullWipe(t *testing.T) {
	f, sites := fedOver(t, Config{},
		newSiteWithGraph(t, tornadoGraph(t, 21), 32),
		newSiteWithGraph(t, tornadoGraph(t, 22), 32),
		newSiteWithGraph(t, tornadoGraph(t, 23), 32))
	var names []string
	var datas [][]byte
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		data := testPayload(200+137*i, uint64(i))
		if err := f.PutCtx(ctx, name, data); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		datas = append(datas, data)
	}
	wipeSite(sites[0])
	// The wiped site alone is useless.
	if _, _, err := sites[0].store.GetCtx(ctx, names[0]); !errors.Is(err, archive.ErrDataLoss) {
		t.Fatalf("wiped site get err = %v, want ErrDataLoss", err)
	}
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Fatalf("repair residue: missing=%d unrecoverable=%d", rep.MissingAfter, rep.Unrecoverable)
	}
	if rep.DirectImports == 0 {
		t.Error("full wipe repaired with zero imports")
	}
	// Conservation: the facade's tally must equal the sites' federation
	// meters exactly — every byte attributed, none invented.
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
	// The repaired site must now serve everything alone.
	for i, name := range names {
		got, _, err := sites[0].store.GetCtx(ctx, name)
		if err != nil || !bytes.Equal(got, datas[i]) {
			t.Errorf("repaired site get %q: err=%v exact=%v", name, err, bytes.Equal(got, datas[i]))
		}
	}
}

func TestRepairSiteSyncsShells(t *testing.T) {
	w := chaos.NewWAN(chaos.WANConfig{Sites: 2})
	f, sites := fedOver(t, Config{WAN: w, WriteQuorum: 1},
		newSiteWithGraph(t, tornadoGraph(t, 31), 32),
		newSiteWithGraph(t, tornadoGraph(t, 32), 32))
	// Site 1 down during the Put: it never hears about the object.
	w.LoseSite(1)
	data := testPayload(700, 9)
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	w.RestoreSite(1)
	if _, err := sites[1].store.Stat("obj"); !errors.Is(err, archive.ErrNotFound) {
		t.Fatal("site 1 should not know the object yet")
	}
	rep, err := f.RepairSiteCtx(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShellsSynced != 1 {
		t.Errorf("shells synced = %d, want 1", rep.ShellsSynced)
	}
	if rep.MissingAfter != 0 {
		t.Errorf("missing after = %d", rep.MissingAfter)
	}
	got, _, err := sites[1].store.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("restored site get: err=%v exact=%v", err, bytes.Equal(got, data))
	}
}

func TestScrubSkipsDownSites(t *testing.T) {
	w := chaos.NewWAN(chaos.WANConfig{Sites: 2})
	f, _ := fedOver(t, Config{WAN: w, WriteQuorum: 1},
		newSiteWithGraph(t, tornadoGraph(t, 41), 32),
		newSiteWithGraph(t, tornadoGraph(t, 42), 32))
	if err := f.PutCtx(ctx, "obj", testPayload(300, 3)); err != nil {
		t.Fatal(err)
	}
	w.LoseSite(1)
	reps, err := f.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Skipped || !reps[1].Skipped {
		t.Errorf("scrub skip flags: %v %v, want false true", reps[0].Skipped, reps[1].Skipped)
	}
	if _, err := f.RepairSiteCtx(ctx, 1); !errors.Is(err, ErrSiteDown) {
		t.Errorf("repair of down site err = %v, want ErrSiteDown", err)
	}
}

func TestDeleteAcrossSites(t *testing.T) {
	f, sites := fedOver(t, Config{},
		newSiteWithGraph(t, tornadoGraph(t, 51), 32),
		newSiteWithGraph(t, tornadoGraph(t, 52), 32))
	if err := f.PutCtx(ctx, "obj", testPayload(100, 4)); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteCtx(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	for i, s := range sites {
		if _, err := s.store.Stat("obj"); !errors.Is(err, archive.ErrNotFound) {
			t.Errorf("site %d still has deleted object", i)
		}
	}
	if err := f.DeleteCtx(ctx, "obj"); !errors.Is(err, archive.ErrNotFound) {
		t.Errorf("double delete err = %v, want ErrNotFound", err)
	}
}

// partialDamage wipes devices 0-2 of the site (within what peeling absorbs)
// and deletes a growing run of further blocks from every other stripe of
// every object, so some stripes come back by local peeling alone, some get
// part of the way, and the rest need their donors for nearly everything.
func partialDamage(t *testing.T, s site) {
	t.Helper()
	for _, d := range []int{0, 1, 2} {
		s.devs[d].Fail()
		s.inj.VoidNode(d)
		s.devs[d].Replace()
	}
	for _, obj := range s.store.List() {
		for st := 0; st < obj.Stripes; st += 2 {
			for node := 3; node < 6+2*st; node++ {
				s.devs[node].Lose([]byte(fmt.Sprintf("%s/%d/%d", obj.Name, st, node)))
			}
		}
	}
}

// TestRepairSitePartialDamage: a site that lost a few devices and a scatter
// of blocks repairs what it can by itself and imports only the data blocks
// peeling could not reach. The counts are goldens captured at 4b47b14 from
// the four-phase RepairSite (repair scrub, probe scrub, per-block import,
// rebuild scrub); the one-pass repair must report exactly the same work. They
// were re-recorded when the repair began to know a short stripe's zero
// padding: 84 imports and 59 local repairs became 67 and 76, as object e's
// last stripe (3 live blocks) rebuilds its 13 lost padding blocks and then
// its 3 live ones at home, and b's last stripe its one lost padding block.
func TestRepairSitePartialDamage(t *testing.T) {
	f, sites := fedOver(t, Config{},
		newSiteWithGraph(t, tornadoGraph(t, 21), 32),
		newSiteWithGraph(t, tornadoGraph(t, 22), 32),
		newSiteWithGraph(t, tornadoGraph(t, 23), 32))
	datas := map[string][]byte{}
	for i := 0; i < 5; i++ {
		name := string(rune('a' + i))
		datas[name] = testPayload(700+611*i, uint64(i))
		if err := f.PutCtx(ctx, name, datas[name]); err != nil {
			t.Fatal(err)
		}
	}
	partialDamage(t, sites[0])
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	const want = "{Site:0 ShellsSynced:0 LocalRepairs:76 DirectImports:67 ExchangedStripes:0 Exchange:{BlocksRead:67 BlocksWritten:67 BytesRead:2412 BytesWritten:2412} MissingAfter:0 Unrecoverable:0}"
	if got := fmt.Sprintf("%+v", rep); got != want {
		t.Errorf("report\n got %s\nwant %s", got, want)
	}
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
	for name, data := range datas {
		got, _, err := sites[0].store.GetCtx(ctx, name)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("repaired site get %q: err=%v exact=%v", name, err, bytes.Equal(got, data))
		}
	}
}

// cancellingBackend cancels a context the first time a block is written
// through it — a Put's caller giving up while a later site is mid-write.
type cancellingBackend struct {
	archive.Backend
	cancel context.CancelFunc
}

func (b *cancellingBackend) Write(ctx context.Context, node int, key, data []byte) error {
	if b.cancel != nil {
		b.cancel()
		b.cancel = nil
	}
	return b.Backend.Write(ctx, node, key, data)
}

// TestCancelledPutRollsBack: a Put cancelled while site 1 writes must not
// leave site 0's finished copy behind — the rollback deletes run outside the
// dead context — so a retry of the same name succeeds.
func TestCancelledPutRollsBack(t *testing.T) {
	cb := &cancellingBackend{}
	var stores []*archive.Store
	for i := uint64(1); i <= 3; i++ {
		g := tornadoGraph(t, i)
		var backend archive.Backend = archive.NewArrayBackend(device.NewArray(g.Total))
		if i == 2 {
			cb.Backend = backend
			backend = cb
		}
		store, err := archive.NewWithBackend(g, backend, archive.Config{BlockSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, store)
	}
	f, err := New(stores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(2000, 9)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cb.cancel = cancel
	if err := f.PutCtx(cctx, "obj", data); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled put err = %v, want context.Canceled", err)
	}
	for i, s := range stores {
		if _, err := s.Stat("obj"); !errors.Is(err, archive.ErrNotFound) {
			t.Errorf("site %d kept the cancelled object (err=%v)", i, err)
		}
	}
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatalf("retry after a cancelled put: %v", err)
	}
	if got, err := f.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after retry: err=%v", err)
	}
}

// TestPutConflictAbortsBelowFullQuorum: a site that already holds the name
// has given a definitive answer. Counting it against a quorum the other
// sites meet would leave its stale copy beside their new bytes — and Get
// asks it first.
func TestPutConflictAbortsBelowFullQuorum(t *testing.T) {
	f, sites := fedOver(t, Config{WriteQuorum: 1},
		newSiteWithGraph(t, tornadoGraph(t, 1), 32),
		newSiteWithGraph(t, tornadoGraph(t, 2), 32),
		newSiteWithGraph(t, tornadoGraph(t, 3), 32))
	stale := testPayload(300, 1)
	if err := sites[1].store.PutCtx(ctx, "obj", stale); err != nil {
		t.Fatal(err)
	}
	if err := f.PutCtx(ctx, "obj", testPayload(300, 2)); !errors.Is(err, archive.ErrExists) {
		t.Fatalf("conflicting put err = %v, want ErrExists", err)
	}
	for _, i := range []int{0, 2} {
		if _, err := sites[i].store.Stat("obj"); !errors.Is(err, archive.ErrNotFound) {
			t.Errorf("site %d kept the refused object (err=%v)", i, err)
		}
	}
	if got, err := f.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("the existing object must be untouched: err=%v", err)
	}
}
