package steward

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tornado/internal/fedstore"
)

// fastOptions keeps retry tests quick: real backoff shape, tiny delays.
func fastOptions(hc *http.Client) ClientOptions {
	return ClientOptions{
		HTTPClient:  hc,
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
}

// flakySite answers 5xx for the first failN requests, then delegates.
func flakySite(failN int64, next http.Handler) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= failN {
			http.Error(w, "transient overload", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	}))
	return srv, &hits
}

func TestClientRetriesTransientServerErrors(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("[]"))
	})
	srv, hits := flakySite(2, ok)
	defer srv.Close()

	c := NewClientWithOptions(srv.URL, fastOptions(srv.Client()))
	objs, err := c.List(ctx)
	if err != nil {
		t.Fatalf("list through flaky site: %v", err)
	}
	if len(objs) != 0 {
		t.Errorf("objs = %v", objs)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (2 failures + success)", got)
	}
	snap := c.Metrics().Snapshot()
	if snap.Counters["client.retries"] != 2 {
		t.Errorf("client.retries = %d, want 2", snap.Counters["client.retries"])
	}
	if snap.Counters["client.failures"] != 0 {
		t.Errorf("client.failures = %d, want 0", snap.Counters["client.failures"])
	}
}

func TestClientReportsUnavailableAfterRetryBudget(t *testing.T) {
	srv, hits := flakySite(1<<30, nil) // never recovers
	defer srv.Close()

	c := NewClientWithOptions(srv.URL, fastOptions(srv.Client()))
	_, err := c.List(ctx)
	if !IsUnavailable(err) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want MaxAttempts=3", got)
	}
	snap := c.Metrics().Snapshot()
	if snap.Counters["client.failures"] != 1 {
		t.Errorf("client.failures = %d, want 1", snap.Counters["client.failures"])
	}
}

func TestClientNeverRetries4xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such object", http.StatusNotFound)
	}))
	defer srv.Close()

	c := NewClientWithOptions(srv.URL, fastOptions(srv.Client()))
	_, err := c.Get(ctx, "missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if IsUnavailable(err) {
		t.Error("definitive 404 classified as site-unavailable")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want exactly 1 (4xx must not retry)", got)
	}
	if n := c.Metrics().Snapshot().Counters["client.retries"]; n != 0 {
		t.Errorf("client.retries = %d, want 0", n)
	}
}

func TestClientHonorsCancellationDuringBackoff(t *testing.T) {
	srv, _ := flakySite(1<<30, nil)
	defer srv.Close()

	opts := fastOptions(srv.Client())
	opts.BaseBackoff = time.Hour // park the retry loop in its backoff sleep
	opts.MaxBackoff = time.Hour
	c := NewClientWithOptions(srv.URL, opts)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.List(ctx)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// TestHostileObjectNames is the regression test for the URL-building bugfix:
// string concatenation mangled names containing %, ?, #, &, spaces, and
// unicode; url.JoinPath + PathEscape must round-trip them all.
func TestHostileObjectNames(t *testing.T) {
	s := newSite(t, 60, 64)
	names := []string{
		"we ird/50%/a?b#c",
		"100%",
		"a&b=c",
		"q?x=1&y=2",
		"frag#ment",
		"spaced out name",
		"αβγ/δ.dat",
		"plus+sign",
		"semi;colon",
	}
	for _, name := range names {
		data := randPayload(150, 60)
		if err := s.client.Put(ctx, name, data); err != nil {
			t.Errorf("put %q: %v", name, err)
			continue
		}
		got, err := s.client.Get(ctx, name)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("get %q: %v", name, err)
			continue
		}
		obj, err := s.client.Stat(ctx, name)
		if err != nil || obj.Name != name {
			t.Errorf("stat %q → %q, %v", name, obj.Name, err)
		}
		if b, err := s.client.ReadBlock(ctx, name, 0, 0, nil); err != nil || !bytes.Equal(b, data[:64]) {
			t.Errorf("read block of %q: %v", name, err)
		}
		if err := s.client.Delete(ctx, name); err != nil {
			t.Errorf("delete %q: %v", name, err)
		}
		if _, err := s.client.Get(ctx, name); !errors.Is(err, ErrNotFound) {
			t.Errorf("get after delete %q: %v", name, err)
		}
	}
}

func TestClientTrailingSlashBaseURL(t *testing.T) {
	s := newSite(t, 61, 64)
	c := NewClientWithOptions(s.httpSrv.URL+"/", ClientOptions{HTTPClient: s.httpSrv.Client()})
	data := randPayload(100, 61)
	if err := c.Put(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("trailing-slash base: %v", err)
	}
}

func TestServerPanicRecovery(t *testing.T) {
	s := newSite(t, 62, 64)
	boom := s.srv.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	boom(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	snap := s.srv.Metrics().Snapshot()
	if snap.Counters["server.panics"] != 1 {
		t.Errorf("server.panics = %d, want 1", snap.Counters["server.panics"])
	}
	if snap.Counters["http.boom.errors"] != 1 {
		t.Errorf("http.boom.errors = %d, want 1", snap.Counters["http.boom.errors"])
	}
}

func TestServerMetricsAndHealthzEndpoints(t *testing.T) {
	s := newSite(t, 63, 64)
	if err := s.client.Put(ctx, "obj", randPayload(64, 63)); err != nil {
		t.Fatal(err)
	}
	resp, err := s.httpSrv.Client().Get(s.httpSrv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status=%v", err, resp)
	}
	resp.Body.Close()
	resp, err = s.httpSrv.Client().Get(s.httpSrv.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v", err)
	}
	resp.Body.Close()
	snap := s.srv.Metrics().Snapshot()
	if snap.Counters["http.put_object.requests"] != 1 {
		t.Errorf("put_object.requests = %d, want 1", snap.Counters["http.put_object.requests"])
	}
	if snap.Histograms["http.put_object.latency"].Count != 1 {
		t.Error("put latency not observed")
	}
}

// threeSiteFederation builds the federated store over three HTTP sites with
// fast retry options.
func threeSiteFederation(t *testing.T) (sites []*site, f *fedstore.Store) {
	t.Helper()
	for i := uint64(0); i < 3; i++ {
		sites = append(sites, newSite(t, 70+i, 64))
	}
	var clients []*Client
	for _, s := range sites {
		clients = append(clients, NewClientWithOptions(s.httpSrv.URL, fastOptions(s.httpSrv.Client())))
	}
	f, err := federate(clients...)
	if err != nil {
		t.Fatal(err)
	}
	return sites, f
}

// gauge reads site i's health gauge off the store's registry.
func gauge(f *fedstore.Store, i int) int64 {
	return f.Metrics().Snapshot().Gauges[fmt.Sprintf("fedstore.site.%d.healthy", i)]
}

// TestStewardPassDegradesAroundDeadSite is the pass's acceptance scenario:
// three sites, one hard-down; the pass completes, records the dead site
// down in the metrics, and repairs everything the two live sites can cover.
func TestStewardPassDegradesAroundDeadSite(t *testing.T) {
	sites, f := threeSiteFederation(t)

	objA := randPayload(500, 70)
	objB := randPayload(300, 71)
	if err := f.PutCtx(ctx, "alpha", objA); err != nil {
		t.Fatal(err)
	}
	if err := f.PutCtx(ctx, "beta", objB); err != nil {
		t.Fatal(err)
	}
	// Site 1 loses its copy of beta (simulated local mishap) so the pass
	// has something to restore.
	if err := sites[1].client.Delete(ctx, "beta"); err != nil {
		t.Fatal(err)
	}
	// Site 2 goes hard down.
	sites[2].httpSrv.Close()

	rep, err := f.PassCtx(ctx)
	if err != nil {
		t.Fatalf("steward pass with one dead site: %v", err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != 2 {
		t.Errorf("Skipped = %v, want [2]", rep.Skipped)
	}
	if len(rep.Repairs) != 2 || rep.Repairs[0].Site != 0 || rep.Repairs[1].Site != 1 {
		t.Fatalf("Repairs = %+v, want sites 0 and 1", rep.Repairs)
	}
	if r := rep.Repairs[1]; r.ShellsSynced != 1 || r.MissingAfter != 0 || r.Unrecoverable != 0 {
		t.Errorf("site 1 repair = %+v, want beta's shell synced and no residue", r)
	}
	if r := rep.Repairs[0]; r.ShellsSynced != 0 || r.DirectImports != 0 {
		t.Errorf("site 0 repair = %+v, want nothing to do", r)
	}

	// The repair is real: site 1 serves beta again on its own.
	got, err := sites[1].client.Get(ctx, "beta")
	if err != nil || !bytes.Equal(got, objB) {
		t.Fatalf("site 1 beta after pass: %v", err)
	}

	// The outage is recorded in the metrics registry.
	if v := gauge(f, 2); v != 0 {
		t.Errorf("site 2 healthy gauge = %d, want 0", v)
	}
	if v := gauge(f, 0); v != 1 {
		t.Errorf("site 0 healthy gauge = %d, want 1", v)
	}
	if f.Metrics().Snapshot().Counters["fedstore.site_down_detected"] != 1 {
		t.Error("want exactly one site-down detection recorded")
	}
	for _, st := range rep.Sites {
		if st.Site == 2 {
			if st.Up || st.LastError == "" {
				t.Errorf("site 2 status = %+v, want down with error", st)
			}
		} else if !st.Up {
			t.Errorf("site %d should be up: %+v", st.Site, st)
		}
	}

	// Reads keep working against the degraded federation, without
	// re-probing the dead site.
	if got, err := f.GetCtx(ctx, "alpha"); err != nil || !bytes.Equal(got, objA) {
		t.Fatalf("degraded get: %v", err)
	}
}

func TestStewardPassReadmitsRecoveredSite(t *testing.T) {
	// A past outage of site 1: its front end refuses one scrub round with
	// 503s, which marks it down; the site itself is fine afterwards, so the
	// next pass's probe must re-admit it.
	var refusing atomic.Bool
	var clients []*Client
	for i := uint64(0); i < 3; i++ {
		s := newSite(t, 70+i, 64)
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 1 && refusing.Load() {
				http.Error(w, "restarting", http.StatusServiceUnavailable)
				return
			}
			s.srv.ServeHTTP(w, r)
		}))
		t.Cleanup(front.Close)
		clients = append(clients, NewClientWithOptions(front.URL, fastOptions(front.Client())))
	}
	f, err := federate(clients...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PutCtx(ctx, "obj", randPayload(200, 72)); err != nil {
		t.Fatal(err)
	}
	refusing.Store(true)
	scrubs, err := f.ScrubCtx(ctx, false)
	if err != nil || !scrubs[1].Skipped {
		t.Fatalf("scrub over a refusing site: %+v, %v", scrubs, err)
	}
	refusing.Store(false)
	if v := gauge(f, 1); v != 0 {
		t.Fatalf("precondition: gauge = %d", v)
	}

	rep, err := f.PassCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Readmitted) != 1 || rep.Readmitted[0] != 1 {
		t.Errorf("Readmitted = %v, want [1]", rep.Readmitted)
	}
	if len(rep.Skipped) != 0 || len(rep.Repairs) != 3 {
		t.Errorf("Skipped = %v, %d repairs; want none skipped, 3 repaired", rep.Skipped, len(rep.Repairs))
	}
	if v := gauge(f, 1); v != 1 {
		t.Errorf("site 1 healthy gauge = %d, want 1", v)
	}
	if n := f.Metrics().Snapshot().Counters["fedstore.site_readmitted"]; n != 1 {
		t.Errorf("site_readmitted = %d, want 1", n)
	}
}

// TestConcurrentReadsWhileSiteGoesDown: readers share the store's health
// state. A site dying under them costs one detection, and no read fails —
// the others serve.
func TestConcurrentReadsWhileSiteGoesDown(t *testing.T) {
	sites, f := threeSiteFederation(t)
	data := randPayload(700, 74)
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var kill sync.Once
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if i == 5 {
					kill.Do(func() {
						sites[0].httpSrv.CloseClientConnections()
						sites[0].httpSrv.Close()
					})
				}
				if got, err := f.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
					t.Errorf("read %d: err=%v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if f.SiteUp(0) || gauge(f, 0) != 0 {
		t.Error("site 0 not marked down")
	}
	if n := f.Metrics().Snapshot().Counters["fedstore.site_down_detected"]; n != 1 {
		t.Errorf("site_down_detected = %d, want one detection for one outage", n)
	}
}

// TestNewReplicatorToleratesDeadSiteAtConstruction covers the CLI path:
// `steward pass` opens its store at invocation time, when a site may already
// be hard-down. Construction must succeed, the pass must degrade, and the
// dead site's graph must be fetched lazily once it returns.
func TestNewReplicatorToleratesDeadSiteAtConstruction(t *testing.T) {
	a := newSite(t, 80, 64)
	b := newSite(t, 81, 64)
	c := newSite(t, 82, 64)
	addr := c.httpSrv.Listener.Addr().String()
	c.httpSrv.Close() // hard-down before the federation is even assembled

	var clients []*Client
	for _, s := range []*site{a, b, c} {
		clients = append(clients, NewClientWithOptions(s.httpSrv.URL, fastOptions(s.httpSrv.Client())))
	}
	f, err := federate(clients...)
	if err != nil {
		t.Fatalf("construction with one dead site: %v", err)
	}
	if v := gauge(f, 2); v != 0 {
		t.Errorf("site 2 healthy gauge = %d, want 0", v)
	}

	data := randPayload(400, 80)
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatalf("degraded put: %v", err)
	}
	if got, err := f.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded get: %v", err)
	}
	rep, err := f.PassCtx(ctx)
	if err != nil {
		t.Fatalf("degraded pass: %v", err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != 2 {
		t.Errorf("Skipped = %v, want [2]", rep.Skipped)
	}
	// Both construction-reachable sites hold the object.
	for i, s := range []*site{a, b} {
		if got, err := s.client.Get(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("site %d copy: %v", i, err)
		}
	}

	// The site comes up for the first time: the pass admits it — striping
	// check and graph included — and brings it the object it never saw.
	revive(t, addr, c.srv)
	rep, err = f.PassCtx(ctx)
	if err != nil || len(rep.Readmitted) != 1 || rep.Readmitted[0] != 2 {
		t.Fatalf("admitting pass: %+v, %v", rep, err)
	}
	if got, _, err := c.store.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("late-admitted site copy: %v", err)
	}

	// All sites dead at construction is still a hard error.
	a.httpSrv.Close()
	b.httpSrv.Close()
	dead := []*Client{clients[0], clients[1]}
	if _, err := federate(dead...); !errors.Is(err, fedstore.ErrNoSite) {
		t.Errorf("all-dead construction: %v, want ErrNoSite", err)
	}
}

// revive serves h again at addr, where a closed test server listened.
func revive(t *testing.T, addr string, h http.Handler) {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	srv := &httptest.Server{Listener: l, Config: &http.Server{Handler: h}}
	srv.Start()
	t.Cleanup(srv.Close)
}

func TestReplicatorGetReportsOutageNotNotFound(t *testing.T) {
	sites, f := threeSiteFederation(t)
	if err := f.PutCtx(ctx, "obj", randPayload(100, 73)); err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		s.httpSrv.Close()
	}
	_, err := f.GetCtx(ctx, "obj")
	if !IsUnavailable(err) {
		t.Errorf("err = %v, want ErrUnavailable (object may survive the outage)", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Error("total outage misreported as not-found")
	}
	// All sites are now marked down; the next read short-circuits, and so
	// does a write.
	if _, err = f.GetCtx(ctx, "obj"); !errors.Is(err, fedstore.ErrNoSite) {
		t.Errorf("second read: %v, want ErrNoSite", err)
	}
	if err := f.PutCtx(ctx, "other", []byte("x")); !errors.Is(err, fedstore.ErrSiteQuorum) {
		t.Errorf("dark put: %v, want ErrSiteQuorum", err)
	}
	// And a steward pass against a fully dark federation errors.
	if _, err := f.PassCtx(ctx); !errors.Is(err, fedstore.ErrNoSite) {
		t.Errorf("dark steward pass: %v, want ErrNoSite", err)
	}
}

// TestStewardFullSiteOutageLifecycle walks one site through the whole
// disaster arc end to end over real HTTP: healthy probe → hard outage →
// degraded pass and degraded writes → the site returns at the same
// address → the next pass readmits it and brings it what it missed — with
// the fedstore.site.N.healthy gauges tracking every transition.
func TestStewardFullSiteOutageLifecycle(t *testing.T) {
	sites, f := threeSiteFederation(t)
	objA := randPayload(420, 90)
	if err := f.PutCtx(ctx, "alpha", objA); err != nil {
		t.Fatal(err)
	}

	// Healthy baseline: the site answers its own /healthz and a pass
	// records every health gauge at 1.
	resp, err := sites[2].httpSrv.Client().Get(sites[2].httpSrv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz probe: err=%v resp=%+v", err, resp)
	}
	resp.Body.Close()
	if _, err := f.PassCtx(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v := gauge(f, i); v != 1 {
			t.Fatalf("baseline site %d healthy gauge = %d, want 1", i, v)
		}
	}

	// Full site outage: the server goes hard down. The pass degrades —
	// skip, don't fail — and flips the gauge.
	addr := sites[2].httpSrv.Listener.Addr().String()
	sites[2].httpSrv.CloseClientConnections()
	sites[2].httpSrv.Close()
	rep, err := f.PassCtx(ctx)
	if err != nil {
		t.Fatalf("pass during outage: %v", err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != 2 {
		t.Errorf("Skipped = %v, want [2]", rep.Skipped)
	}
	if v := gauge(f, 2); v != 0 {
		t.Errorf("outage gauge = %d, want 0", v)
	}
	if f.Metrics().Snapshot().Counters["fedstore.site_down_detected"] != 1 {
		t.Error("outage not counted once in fedstore.site_down_detected")
	}

	// Writes keep flowing to the survivors while the site is dark.
	objB := randPayload(640, 91)
	if err := f.PutCtx(ctx, "beta", objB); err != nil {
		t.Fatalf("degraded put: %v", err)
	}

	// The site returns at the same address with its store intact.
	revive(t, addr, sites[2].srv)

	// Recovery pass: probe readmits the site, flips the gauge back, and
	// brings it the object it missed during the outage.
	rep2, err := f.PassCtx(ctx)
	if err != nil {
		t.Fatalf("recovery pass: %v", err)
	}
	if len(rep2.Readmitted) != 1 || rep2.Readmitted[0] != 2 {
		t.Errorf("Readmitted = %v, want [2]", rep2.Readmitted)
	}
	if len(rep2.Repairs) != 3 || rep2.Repairs[2].ShellsSynced != 1 {
		t.Errorf("Repairs = %+v, want beta's shell synced to site 2", rep2.Repairs)
	}
	if v := gauge(f, 2); v != 1 {
		t.Errorf("recovered gauge = %d, want 1", v)
	}
	if f.Metrics().Snapshot().Counters["fedstore.site_readmitted"] != 1 {
		t.Error("readmission not counted")
	}

	// The recovery is real: the returned site serves the outage-era object
	// alone, bit-exact, and the old object is still intact everywhere.
	if got, err := sites[2].client.Get(ctx, "beta"); err != nil || !bytes.Equal(got, objB) {
		t.Fatalf("revived site beta: err=%v exact=%v", err, bytes.Equal(got, objB))
	}
	if got, err := f.GetCtx(ctx, "alpha"); err != nil || !bytes.Equal(got, objA) {
		t.Fatalf("alpha after lifecycle: err=%v", err)
	}
}
