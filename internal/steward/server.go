// Package steward is the HTTP form of a federation site (paper §5.3, §6).
// A Server puts one archive — its Tornado-coded object store — on the wire:
// object upload/download, block-level access for inter-site exchange,
// scrubbing and health introspection. A Client is the same site seen from the
// other end, and fills fedstore.Site: the federation itself — quorum writes,
// failover reads, the byte-level block exchange ("by allowing the replicas to
// exchange the missing data nodes, restoring just one critical data node
// allows the data graph to be reconstructed even when both graphs cannot
// independently perform the reconstruction"), site repair and the steward
// pass — is fedstore.Store over Clients, the one runtime that also runs over
// in-process archives.
//
// The stack is context-first and observable: every client call takes a
// context and carries per-request deadlines and bounded retry, the server
// hands each request's context to the store, wraps each route in panic
// recovery and request metrics and exports them at /metrics (JSON, see
// tornado/internal/obs) next to a /healthz liveness probe. A site that stays
// unreachable after the retry budget answers ErrUnavailable, the class on
// which the store marks it down and works around it.
package steward

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"tornado/internal/archive"
	"tornado/internal/graphml"
	"tornado/internal/obs"
)

// Server exposes one archive site over HTTP. It implements http.Handler.
// Every route is wrapped in panic recovery and per-route request metrics;
// the metrics are served at /metrics and a liveness probe at /healthz.
type Server struct {
	store   *archive.Store
	mux     *http.ServeMux
	metrics *obs.Registry
}

// NewServer wraps a site's store.
func NewServer(store *archive.Store) *Server {
	s := &Server{store: store, mux: http.NewServeMux(), metrics: obs.NewRegistry()}
	s.route("PUT /objects/{name...}", "put_object", s.putObject)
	s.route("GET /objects/{name...}", "get_object", s.getObject)
	s.route("DELETE /objects/{name...}", "delete_object", s.deleteObject)
	s.route("GET /stat/{name...}", "stat_object", s.statObject)
	s.route("GET /list", "list", s.listObjects)
	s.route("GET /layout", "layout", s.layout)
	s.route("GET /graph", "graph", s.graph)
	s.route("GET /blocks/{name...}", "get_block", s.getBlock)
	s.route("PUT /blocks/{name...}", "put_block", s.putBlock)
	s.route("POST /shell/{name...}", "put_shell", s.putShell)
	s.route("GET /health", "health", s.health)
	s.route("POST /scrub", "scrub", s.scrub)
	// /metrics unions the server's HTTP request metrics with the store's
	// self-healing and scrub counters (archive.*) in one JSON snapshot.
	s.mux.Handle("GET /metrics", obs.MergedHandler(s.metrics, store.Metrics()))
	s.route("GET /healthz", "healthz", s.healthz)
	return s
}

// ServeHTTP dispatches to the site API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Store returns the underlying archive (for test instrumentation).
func (s *Server) Store() *archive.Store { return s.store }

// Metrics returns the server's metric registry (also served at /metrics).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// route registers a handler wrapped in the observation middleware; name
// labels the route's metrics (http.<name>.requests / errors / latency).
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(name, h))
}

// statusWriter captures the response status for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with panic recovery and request metrics. A
// panic is converted to a 500 and counted (server.panics) instead of
// killing the connection servicing goroutine with a stack dump mid-pass.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.metrics.Counter("http." + name + ".requests")
	errs := s.metrics.Counter("http." + name + ".errors")
	latency := s.metrics.Histogram("http." + name + ".latency")
	panics := s.metrics.Counter("server.panics")
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			latency.Observe(time.Since(start))
			if rec := recover(); rec != nil {
				panics.Inc()
				errs.Inc()
				http.Error(sw, fmt.Sprintf("steward: internal error: %v", rec), http.StatusInternalServerError)
				return
			}
			if sw.status >= 500 {
				errs.Inc()
			}
		}()
		h(sw, r)
	}
}

// healthz is the liveness probe: cheap (no scrub), always 200 while the
// process serves, with enough state to see the site is the one you meant.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	lay := s.store.Layout()
	writeJSON(w, map[string]any{
		"status":     "ok",
		"objects":    len(s.store.List()),
		"data_nodes": lay.DataNodes,
		"block_size": lay.BlockSize,
	})
}

func httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, archive.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, archive.ErrExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, archive.ErrDataLoss):
		http.Error(w, err.Error(), http.StatusGone)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) putObject(w http.ResponseWriter, r *http.Request) {
	// Stream the body straight into stripes — the server never buffers a
	// whole object.
	_, err := s.store.PutStream(r.Context(), r.PathValue("name"),
		http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) getObject(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	obj, err := s.store.Stat(name)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(obj.Size))
	if n, _, err := s.store.GetStream(r.Context(), name, w); err != nil {
		if n == 0 {
			// Nothing on the wire yet — the error can still get a status.
			w.Header().Del("Content-Length")
			httpError(w, err)
			return
		}
		// Stripes are already out; the truncated body (vs Content-Length)
		// is the failure signal.
		s.metrics.Counter("steward.get.aborted").Inc()
	}
}

func (s *Server) deleteObject(w http.ResponseWriter, r *http.Request) {
	if err := s.store.DeleteCtx(r.Context(), r.PathValue("name")); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) statObject(w http.ResponseWriter, r *http.Request) {
	obj, err := s.store.Stat(r.PathValue("name"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, obj)
}

func (s *Server) listObjects(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.store.List())
}

func (s *Server) layout(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.store.Layout())
}

func (s *Server) graph(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := graphml.Encode(&buf, s.store.Graph()); err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write(buf.Bytes())
}

func blockCoords(r *http.Request) (stripe, node int, err error) {
	stripe, err = strconv.Atoi(r.URL.Query().Get("stripe"))
	if err != nil {
		return 0, 0, fmt.Errorf("steward: bad stripe: %w", err)
	}
	node, err = strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		return 0, 0, fmt.Errorf("steward: bad node: %w", err)
	}
	return stripe, node, nil
}

func (s *Server) getBlock(w http.ResponseWriter, r *http.Request) {
	stripe, node, err := blockCoords(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b, err := s.store.ReadBlockCtx(r.Context(), r.PathValue("name"), stripe, node, nil)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Write(b)
}

func (s *Server) putBlock(w http.ResponseWriter, r *http.Request) {
	stripe, node, err := blockCoords(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<26))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.store.WriteBlockCtx(r.Context(), r.PathValue("name"), stripe, node, body); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) putShell(w http.ResponseWriter, r *http.Request) {
	size, err := strconv.Atoi(r.URL.Query().Get("size"))
	if err != nil {
		http.Error(w, "steward: bad size", http.StatusBadRequest)
		return
	}
	stripes, err := strconv.Atoi(r.URL.Query().Get("stripes"))
	if err != nil {
		http.Error(w, "steward: bad stripes", http.StatusBadRequest)
		return
	}
	if err := s.store.PutShell(r.PathValue("name"), size, stripes); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	rep, err := s.store.ScrubCtx(r.Context(), false)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, rep)
}

func (s *Server) scrub(w http.ResponseWriter, r *http.Request) {
	rep, err := s.store.ScrubCtx(r.Context(), true)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, rep)
}
