package steward

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestClientConnectionRefused(t *testing.T) {
	c := NewClientWithOptions("http://127.0.0.1:1", ClientOptions{}) // nothing listens on port 1
	if err := c.Put(ctx, "x", []byte("data")); err == nil {
		t.Error("put to dead site succeeded")
	}
	if _, err := c.List(ctx); err == nil {
		t.Error("list from dead site succeeded")
	}
}

func TestClientServerErrorsMapped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.Contains(r.URL.Path, "missing"):
			http.Error(w, "nope", http.StatusNotFound)
		case strings.Contains(r.URL.Path, "dup"):
			http.Error(w, "already", http.StatusConflict)
		case strings.Contains(r.URL.Path, "lost"):
			http.Error(w, "gone", http.StatusGone)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	c := NewClientWithOptions(srv.URL, ClientOptions{HTTPClient: srv.Client()})

	if _, err := c.Get(ctx, "missing"); !IsNotFound(err) {
		t.Errorf("404 mapped to %v", err)
	}
	if err := c.Put(ctx, "dup", nil); err == nil || IsNotFound(err) {
		t.Errorf("409 mapped to %v", err)
	}
	if _, err := c.Get(ctx, "lost"); err == nil || IsNotFound(err) {
		t.Errorf("410 mapped to %v", err)
	}
	if _, err := c.Get(ctx, "other"); err == nil {
		t.Error("500 swallowed")
	}
}

func TestClientGarbageJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("this is not json"))
	}))
	defer srv.Close()
	c := NewClientWithOptions(srv.URL, ClientOptions{HTTPClient: srv.Client()})
	if _, err := c.List(ctx); err == nil {
		t.Error("garbage list accepted")
	}
	if _, err := c.Stat(ctx, "x"); err == nil {
		t.Error("garbage stat accepted")
	}
	if _, err := c.Layout(ctx); err == nil {
		t.Error("garbage layout accepted")
	}
	if _, err := c.Scrub(ctx, false); err == nil {
		t.Error("garbage health accepted")
	}
	if _, err := c.Graph(ctx); err == nil {
		t.Error("garbage graph accepted")
	}
}

func TestServerBadBlockParams(t *testing.T) {
	s := newSite(t, 50, 64)
	for _, path := range []string{
		"/blocks/obj",                      // no coords
		"/blocks/obj?stripe=x&node=0",      // bad stripe
		"/blocks/obj?stripe=0&node=banana", // bad node
		"/shell/obj?size=x&stripes=1",      // bad size
		"/shell/obj?size=1&stripes=x",      // bad stripes
	} {
		resp, err := s.httpSrv.Client().Get(s.httpSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// /shell is POST-only; GET gives 405, others 400 — either way not 2xx.
		if resp.StatusCode < 400 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestServerRefusesInconsistentShell: a peer's shell whose size and stripe
// count disagree is refused, so no later read of the name can take the
// server down — reading an accepted one would panic a stripe-pipeline
// goroutine, which no handler recovers. The site then goes on serving.
func TestServerRefusesInconsistentShell(t *testing.T) {
	s := newSite(t, 54, 64)
	resp, err := s.httpSrv.Client().Post(s.httpSrv.URL+"/shell/bad?size=0&stripes=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 300 {
		t.Errorf("inconsistent shell: status %d, want a refusal", resp.StatusCode)
	}
	if _, err := s.client.Get(ctx, "bad"); !IsNotFound(err) {
		t.Errorf("get of a refused shell: %v", err)
	}
	data := randPayload(500, 54)
	if err := s.client.Put(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	if got, err := s.client.Get(ctx, "obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip after the refusal: %v", err)
	}
}

func TestServerMethodRouting(t *testing.T) {
	s := newSite(t, 51, 64)
	// POST to an object path is not routed.
	resp, err := s.httpSrv.Client().Post(s.httpSrv.URL+"/objects/x", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /objects status %d", resp.StatusCode)
	}
}

func TestReplicatorPutRollsBack(t *testing.T) {
	a := newSite(t, 52, 64)
	b := newSite(t, 53, 64)
	f, err := federate(a.client, b.client)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-claim the name at site B so the federated put fails there.
	if err := b.client.Put(ctx, "obj", []byte("previous")); err != nil {
		t.Fatal(err)
	}
	// Quorum 1 would be met by site A alone: the conflict is a definitive
	// answer about the name, not a site to work around.
	if err := f.PutCtx(ctx, "obj", randPayload(100, 52)); !errors.Is(err, ErrExists) {
		t.Fatalf("conflicting put: %v, want ErrExists", err)
	}
	// The rollback must have removed site A's copy.
	if _, err := a.client.Get(ctx, "obj"); !IsNotFound(err) {
		t.Errorf("site A still holds the rolled-back object: %v", err)
	}
}
