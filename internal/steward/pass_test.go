package steward

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"tornado/internal/archive"
	"tornado/internal/device"
	"tornado/internal/fedstore"
)

// blockRequests reads one site's block-route request counters.
func blockRequests(s *site) (gets, puts int64) {
	c := s.srv.Metrics().Snapshot().Counters
	return c["http.get_block.requests"], c["http.put_block.requests"]
}

// TestPassRepairsWipedSiteOverHTTP is the site_wipe disaster through the
// CLI's path: every device of site 0 failed and replaced, then one pass.
// Site 0 must serve every object alone again, and the repair must cost one
// cross-site block per lost live data block — read at a donor, written at
// site 0, nothing at the sites that lost nothing. (A short stripe's zero
// padding is known at home, as the checks are rebuilt there.)
func TestPassRepairsWipedSiteOverHTTP(t *testing.T) {
	sites, f := threeSiteFederation(t)
	golden := map[string][]byte{}
	var lost int64
	for k := 0; k < 3; k++ {
		name := fmt.Sprintf("obj-%d", k)
		golden[name] = randPayload(48*64*(k+1)+100*k, uint64(100+k)) // 1, 3 and 4 stripes
		if err := f.PutCtx(ctx, name, golden[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range sites[0].store.List() {
		lost += int64(liveBlocks(sites[0].store, obj))
	}
	sites[0].wipe()
	var before [3][2]int64
	for i, s := range sites {
		before[i][0], before[i][1] = blockRequests(s)
	}

	rep, err := f.PassCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repairs) != 3 || rep.Repairs[0].DirectImports != int(lost) ||
		rep.Repairs[0].MissingAfter != 0 || rep.Repairs[0].Unrecoverable != 0 {
		t.Fatalf("pass report %+v, want %d imports at site 0 and no residue", rep.Repairs, lost)
	}
	var donorReads int64
	for i, s := range sites {
		gets, puts := blockRequests(s)
		gets, puts = gets-before[i][0], puts-before[i][1]
		switch {
		case i == 0 && (gets != 0 || puts != lost):
			t.Errorf("site 0 saw %d block reads, %d block writes; want 0 and %d", gets, puts, lost)
		case i != 0 && puts != 0:
			t.Errorf("healthy site %d received %d block writes", i, puts)
		case i != 0:
			donorReads += gets
		}
	}
	if donorReads != lost {
		t.Errorf("donors served %d block reads, want exactly the %d lost data blocks", donorReads, lost)
	}
	for name, want := range golden {
		if got, _, err := sites[0].store.GetCtx(ctx, name); err != nil || !bytes.Equal(got, want) {
			t.Errorf("site 0 alone, %s: err=%v", name, err)
		}
	}
}

// liveBlocks is how many data blocks obj's payload fills: the rest of its
// stripes' data blocks are zero padding.
func liveBlocks(s *archive.Store, obj archive.Object) int {
	bs := s.Layout().BlockSize
	return (obj.Size + bs - 1) / bs
}

// TestRepairSiteSameInProcessAndOverHTTP: one store, two kinds of site. The
// same disaster repaired through archive.Store sites and through Client sites
// must import, exchange and leave behind the same counts.
func TestRepairSiteSameInProcessAndOverHTTP(t *testing.T) {
	type counts struct{ imports, exchanged, missing, unrecoverable int }
	for _, tc := range []struct {
		name string
		// damage is done to the donors after site 0 is wiped.
		damage func(sites []*site)
		want   func(stripes, live int) counts
	}{
		{"full wipe", func([]*site) {},
			func(_, live int) counts { return counts{imports: live} }},
		// No donor holds data block 0 on disk: every other live block
		// comes straight across, block 0 through the joint exchange.
		{"wipe, data block 0 gone at every donor", func(sites []*site) {
			sites[1].devices[0].Fail()
			sites[2].devices[0].Fail()
		}, func(stripes, live int) counts { return counts{imports: live - stripes, exchanged: stripes} }},
	} {
		for _, overHTTP := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/http=%v", tc.name, overHTTP), func(t *testing.T) {
				var sites []*site
				var stores []*archive.Store
				var clients []*Client
				for i := uint64(0); i < 3; i++ {
					s := newSite(t, 70+i, 64)
					sites = append(sites, s)
					stores = append(stores, s.store)
					clients = append(clients, s.client)
				}
				f, err := fedstore.New(stores, fedstore.Config{})
				if overHTTP {
					f, err = federate(clients...)
				}
				if err != nil {
					t.Fatal(err)
				}
				stripes, live := 0, 0
				for k := 0; k < 2; k++ {
					if err := f.PutCtx(ctx, fmt.Sprintf("obj-%d", k), randPayload(5000*(k+1), uint64(k))); err != nil {
						t.Fatal(err)
					}
				}
				for _, obj := range stores[0].List() {
					stripes += obj.Stripes
					live += liveBlocks(stores[0], obj)
				}
				sites[0].wipe()
				tc.damage(sites)
				rep, err := f.RepairSiteCtx(ctx, 0)
				if err != nil {
					t.Fatal(err)
				}
				got := counts{rep.DirectImports, rep.ExchangedStripes, rep.MissingAfter, rep.Unrecoverable}
				if want := tc.want(stripes, live); got != want {
					t.Errorf("report %+v: counts %+v, want %+v", rep, got, want)
				}
				if want := int64(rep.DirectImports) * int64(f.Layout().FrameSize()); rep.Exchange.BytesRead < want {
					t.Errorf("facade tallied %d bytes read for %d imports", rep.Exchange.BytesRead, rep.DirectImports)
				}
			})
		}
	}
}

// TestRemoteRepairTreatsLackingDataAsStorable: a site over HTTP cannot say
// which of its drives answer, so Client.RepairFrom offers the donor every
// data block a stripe lacks as one the site can store, where the in-process
// pass offers only those whose drive answered. Site 0 is wiped with drive 0
// dead and no donor holds data block 0: in process nothing is exchanged, as
// block 0 could not go home; over HTTP every stripe goes through the joint
// exchange and the dead drive refuses block 0. The residue is the same.
func TestRemoteRepairTreatsLackingDataAsStorable(t *testing.T) {
	var reps [2]fedstore.RepairReport
	for k, overHTTP := range []bool{false, true} {
		var sites []*site
		var stores []*archive.Store
		var clients []*Client
		for i := uint64(0); i < 3; i++ {
			s := newSite(t, 70+i, 64)
			sites, stores, clients = append(sites, s), append(stores, s.store), append(clients, s.client)
		}
		f, err := fedstore.New(stores, fedstore.Config{})
		if overHTTP {
			f, err = federate(clients...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := f.PutCtx(ctx, "obj", randPayload(15000, 1)); err != nil {
			t.Fatal(err)
		}
		sites[0].wipe()
		for _, s := range sites {
			s.devices[0].Fail()
		}
		if reps[k], err = f.RepairSiteCtx(ctx, 0); err != nil {
			t.Fatal(err)
		}
		obj, err := stores[0].Stat("obj")
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{false: 0, true: obj.Stripes}[overHTTP]; reps[k].ExchangedStripes != want {
			t.Errorf("http=%v: report %+v, want %d stripes exchanged", overHTTP, reps[k], want)
		}
	}
	if reps[0].MissingAfter != reps[1].MissingAfter || reps[0].Unrecoverable != reps[1].Unrecoverable {
		t.Errorf("residue differs: in process %+v, over HTTP %+v", reps[0], reps[1])
	}
}

// TestRepairSiteResidueMatchesScrubOverHTTP: over HTTP too, RepairSite's
// residue is the last repairing pass's and equals what a verify-only scrub of
// the site finds after it. Site 0 is wiped with one dead replacement drive: a
// check's while no donor holds data block 0, so the residue is the rebuild
// pass's after a joint exchange; or a data block's, whose stripes the donors
// complete and no exchange can help.
func TestRepairSiteResidueMatchesScrubOverHTTP(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dead      func(total int) int
		lost      bool // data block 0 is gone at every donor
		exchanged bool
	}{
		{"dead check drive, block 0 gone at every donor", func(total int) int { return total - 1 }, true, true},
		{"dead data drive", func(int) int { return 3 }, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sites []*site
			var clients []*Client
			for i := uint64(0); i < 3; i++ {
				s := newSite(t, 70+i, 64)
				sites, clients = append(sites, s), append(clients, s.client)
			}
			f, err := federate(clients...)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				if err := f.PutCtx(ctx, fmt.Sprintf("obj-%d", k), randPayload(5000*(k+1), uint64(k))); err != nil {
					t.Fatal(err)
				}
			}
			stripes := 0
			for _, obj := range sites[0].store.List() {
				stripes += obj.Stripes
			}
			sites[0].wipe()
			sites[0].devices[tc.dead(len(sites[0].devices))].Fail()
			if tc.lost {
				sites[1].devices[0].Fail()
				sites[2].devices[0].Fail()
			}
			rep, err := f.RepairSiteCtx(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			scrub, err := sites[0].client.Scrub(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			missing := 0
			for _, h := range scrub.Stripes {
				missing += len(h.Missing)
			}
			if rep.MissingAfter != missing || rep.Unrecoverable != scrub.Unrecoverable {
				t.Errorf("report residue missing=%d unrecoverable=%d, scrub finds %d and %d",
					rep.MissingAfter, rep.Unrecoverable, missing, scrub.Unrecoverable)
			}
			want := 0
			if tc.exchanged {
				want = stripes
			}
			if rep.ExchangedStripes != want || rep.MissingAfter < stripes {
				t.Errorf("report %+v, want %d stripes exchanged, the dead drive's block of each missing", rep, want)
			}
		})
	}
}

// stuckBackend, once stuck, blocks every block operation until the
// operation's context ends — a device that never answers — and says on
// entered that one has arrived.
type stuckBackend struct {
	archive.Backend
	stuck   bool
	entered chan struct{}
}

func (b *stuckBackend) wait(ctx context.Context) error {
	b.entered <- struct{}{}
	<-ctx.Done()
	return ctx.Err()
}

func (b *stuckBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	if b.stuck {
		return nil, b.wait(ctx)
	}
	return archive.ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

func (b *stuckBackend) Write(ctx context.Context, node int, key, data []byte) error {
	if b.stuck {
		return b.wait(ctx)
	}
	return b.Backend.Write(ctx, node, key, data)
}

func (b *stuckBackend) Delete(ctx context.Context, node int, key []byte) error {
	if b.stuck {
		return b.wait(ctx)
	}
	return b.Backend.Delete(ctx, node, key)
}

// TestServerHandlersHonorRequestContext: a client that gives up (its
// per-attempt deadline) must not leave the site working on its request, where
// the retry would race it. With a backend that never answers, the delete and
// block handlers must return once the request's context ends.
func TestServerHandlersHonorRequestContext(t *testing.T) {
	g := newSite(t, 95, 64).store.Graph()
	// entered is buffered for every block op a request can reach once its
	// context is done (a delete walks all of them).
	backend := &stuckBackend{Backend: archive.NewArrayBackend(device.NewArray(g.Total)),
		entered: make(chan struct{}, g.Total)}
	store, err := archive.NewWithBackend(g, backend, archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutCtx(ctx, "obj", randPayload(300, 95)); err != nil {
		t.Fatal(err)
	}
	backend.stuck = true
	srv := NewServer(store)
	block := "/blocks/obj?" + url.Values{"stripe": {"0"}, "node": {"0"}}.Encode()
	for _, tc := range []struct{ method, target string }{
		{http.MethodGet, block},
		{http.MethodPut, block},
		{http.MethodDelete, "/objects/obj"},
	} {
		rctx, cancel := context.WithCancel(ctx)
		req := httptest.NewRequest(tc.method, tc.target, bytes.NewReader(make([]byte, 64))).WithContext(rctx)
		done := make(chan struct{})
		go func() {
			srv.ServeHTTP(httptest.NewRecorder(), req)
			close(done)
		}()
		<-backend.entered // the handler is inside the device call
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s %s still running 5s after its request was cancelled", tc.method, tc.target)
		}
		for len(backend.entered) > 0 {
			<-backend.entered
		}
	}
}
