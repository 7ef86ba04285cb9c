package fedstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tornado/internal/archive"
	"tornado/internal/chaos"
)

// gate holds each site's first call of a method until want[method] sites
// have made one. A facade that calls its sites one at a time never opens it:
// its first site waits alone until expire, then fails with a deadline error.
type gate struct {
	want    map[string]int
	expire  <-chan struct{}
	mu      sync.Mutex
	entered map[string]map[int]bool
	open    map[string]chan struct{}
}

func (g *gate) wait(method string, site int) error {
	g.mu.Lock()
	if g.open[method] == nil {
		g.open[method] = make(chan struct{})
		g.entered[method] = map[int]bool{}
	}
	open, in := g.open[method], g.entered[method]
	if !in[site] {
		in[site] = true
		if len(in) == g.want[method] {
			close(open)
		}
	}
	g.mu.Unlock()
	select {
	case <-open:
		return nil
	case <-g.expire:
		return fmt.Errorf("site %d: %s waited alone for the other sites: %w", site, method, context.DeadlineExceeded)
	}
}

// gatedSite is a Site whose Put and Delete pass the gate.
type gatedSite struct {
	Site
	i int
	g *gate
}

func (s gatedSite) Put(ctx context.Context, name string, data []byte) error {
	if err := s.g.wait("Put", s.i); err != nil {
		return err
	}
	return s.Site.Put(ctx, name, data)
}

func (s gatedSite) Delete(ctx context.Context, name string) error {
	if err := s.g.wait("Delete", s.i); err != nil {
		return err
	}
	return s.Site.Delete(ctx, name)
}

// TestFanOutReachesSitesAtOnce forces the schedule: each up site's Put waits
// until every other up site has entered its Put, and each rollback Delete
// until every other site being rolled back has entered its Delete, so the Put
// and its rollback pass only if they reach their sites at once. A serialized
// loop fails within the 5 s deadline. The WAN-dark fourth site is never
// called.
func TestFanOutReachesSitesAtOnce(t *testing.T) {
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	g := &gate{want: map[string]int{"Put": 3, "Delete": 2}, expire: dctx.Done(),
		entered: map[string]map[int]bool{}, open: map[string]chan struct{}{}}
	var stores []*archive.Store
	var sites []Site
	for i := 0; i < 4; i++ {
		s := newSiteWithGraph(t, tornadoGraph(t, 61+uint64(i)), 32)
		stores = append(stores, s.store)
		sites = append(sites, gatedSite{local{s.store}, i, g})
	}
	w := chaos.NewWAN(chaos.WANConfig{Sites: 4})
	f, err := Open(ctx, sites, Config{WAN: w, WriteQuorum: 3})
	if err != nil {
		t.Fatal(err)
	}
	w.LoseSite(3)
	data := testPayload(500, 7)
	if err := f.PutCtx(dctx, "obj", data); err != nil {
		t.Fatalf("Put did not reach the up sites at once: %v", err)
	}
	if got, err := f.GetCtx(dctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after the fanned-out put: err=%v", err)
	}
	// Site 2 already holds "dup", so the Put is refused there and rolled
	// back at sites 0 and 1.
	stale := testPayload(300, 8)
	if err := stores[2].PutCtx(ctx, "dup", stale); err != nil {
		t.Fatal(err)
	}
	if err := f.PutCtx(dctx, "dup", testPayload(300, 9)); !errors.Is(err, archive.ErrExists) {
		t.Fatalf("conflicting put err = %v, want ErrExists (a serialized rollback waits alone)", err)
	}
	for _, i := range []int{0, 1} {
		if _, err := stores[i].Stat("dup"); !errors.Is(err, archive.ErrNotFound) {
			t.Errorf("site %d kept the refused object (err=%v)", i, err)
		}
	}
	for method, in := range g.entered {
		if in[3] {
			t.Errorf("%s reached the dark site", method)
		}
	}
}

// stuckDelete is a Site whose Delete always fails.
type stuckDelete struct{ Site }

func (stuckDelete) Delete(context.Context, string) error { return errors.New("media busy") }

// TestPutReportsFailedRollback: a refused Put whose rollback Delete fails at
// a site leaves its bytes there, unlike the other sites' copy; the error still
// carries the verdict and names that site.
func TestPutReportsFailedRollback(t *testing.T) {
	var stores []*archive.Store
	var sites []Site
	for i := 0; i < 3; i++ {
		s := newSiteWithGraph(t, tornadoGraph(t, 81+uint64(i)), 32)
		stores = append(stores, s.store)
		sites = append(sites, local{s.store})
	}
	sites[0] = stuckDelete{sites[0]}
	f, err := Open(ctx, sites, Config{WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := stores[1].PutCtx(ctx, "obj", testPayload(300, 1)); err != nil {
		t.Fatal(err)
	}
	err = f.PutCtx(ctx, "obj", testPayload(300, 2))
	if !errors.Is(err, archive.ErrExists) {
		t.Fatalf("conflicting put err = %v, want ErrExists", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "rollback failed") || !strings.Contains(msg, "site 0 (media busy)") {
		t.Fatalf("err = %q, want it to name site 0's failed rollback", msg)
	}
	if _, err := stores[0].Stat("obj"); err != nil {
		t.Fatalf("site 0 should still hold the refused copy: %v", err)
	}
	if _, err := stores[2].Stat("obj"); !errors.Is(err, archive.ErrNotFound) {
		t.Errorf("site 2 kept the refused object (err=%v)", err)
	}
}

// TestFanOutRacingPuts: Puts racing on one name reach every site at once, so
// each site may pick a different first writer and every racer may be refused
// — but at most one Put succeeds, and once all have returned every site that
// holds the name holds the winner's bytes.
func TestFanOutRacingPuts(t *testing.T) {
	const racers, rounds = 4, 40
	for _, quorum := range []int{3, 1} {
		f, sites := fedOver(t, Config{WriteQuorum: quorum},
			newSiteWithGraph(t, tornadoGraph(t, 71), 32),
			newSiteWithGraph(t, tornadoGraph(t, 72), 32),
			newSiteWithGraph(t, tornadoGraph(t, 73), 32))
		won := 0
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("obj-%d", r)
			payloads := make([][]byte, racers)
			errs := make([]error, racers)
			for p := range payloads {
				payloads[p] = testPayload(400, uint64(r*racers+p))
			}
			var wg sync.WaitGroup
			for p := range payloads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[p] = f.PutCtx(ctx, name, payloads[p])
				}()
			}
			wg.Wait()
			winner := -1
			for p, err := range errs {
				switch {
				case err == nil && winner >= 0:
					t.Fatalf("quorum %d round %d: racers %d and %d both succeeded", quorum, r, winner, p)
				case err == nil:
					winner, won = p, won+1
				case !errors.Is(err, archive.ErrExists):
					t.Fatalf("quorum %d round %d: racer %d: %v, want nil or ErrExists", quorum, r, p, err)
				}
			}
			for i, s := range sites {
				got, _, err := s.store.GetCtx(ctx, name)
				switch {
				case errors.Is(err, archive.ErrNotFound):
				case err != nil:
					t.Fatalf("quorum %d round %d: site %d: %v", quorum, r, i, err)
				case winner < 0:
					t.Fatalf("quorum %d round %d: site %d holds a refused payload", quorum, r, i)
				case !bytes.Equal(got, payloads[winner]):
					t.Fatalf("quorum %d round %d: site %d holds bytes other than the winner's", quorum, r, i)
				}
			}
		}
		t.Logf("quorum %d: %d of %d rounds had a winner", quorum, won, rounds)
	}
}
