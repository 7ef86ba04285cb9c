package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"tornado/internal/archive"
	"tornado/internal/obs"
)

// Handler returns the service's HTTP front door:
//
//	PUT    /t/{tenant}/objects/{name...}  ingest (201; 409 if it exists)
//	GET    /t/{tenant}/objects/{name...}  stream back (200; 404; 410 on data loss)
//	DELETE /t/{tenant}/objects/{name...}  remove (204)
//	GET    /t/{tenant}/stat/{name...}     metadata (JSON)
//	GET    /t/{tenant}/list               tenant's objects (JSON)
//	GET    /metrics                       serve.* plus the store's archive.* (JSON)
//	GET    /healthz                       liveness
//
// Backpressure surfaces as 503 with a Retry-After header; an unknown
// tenant is 404. Request bodies and responses stream — an object is never
// buffered whole in the server.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /t/{tenant}/objects/{name...}", s.httpPut)
	mux.HandleFunc("GET /t/{tenant}/objects/{name...}", s.httpGet)
	mux.HandleFunc("DELETE /t/{tenant}/objects/{name...}", s.httpDelete)
	mux.HandleFunc("GET /t/{tenant}/stat/{name...}", s.httpStat)
	mux.HandleFunc("GET /t/{tenant}/list", s.httpList)
	mux.Handle("GET /metrics", obs.MergedHandler(s.metrics, s.store.Metrics()))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

func (s *Service) httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrUnknownTenant), errors.Is(err, archive.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, archive.ErrExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, archive.ErrDataLoss):
		http.Error(w, err.Error(), http.StatusGone)
	case errIsCtx(err):
		// The client went away (or its deadline passed); 499-style close.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Service) httpPut(w http.ResponseWriter, r *http.Request) {
	n, err := s.Put(r.Context(), r.PathValue("tenant"), r.PathValue("name"), r.Body)
	if err != nil {
		s.httpError(w, err)
		return
	}
	w.Header().Set("X-Bytes-Stored", strconv.Itoa(n))
	w.WriteHeader(http.StatusCreated)
}

func (s *Service) httpGet(w http.ResponseWriter, r *http.Request) {
	tn, name := r.PathValue("tenant"), r.PathValue("name")
	obj, err := s.Stat(r.Context(), tn, name)
	if err != nil {
		s.httpError(w, err)
		return
	}
	hw := &headerOnFirstByte{w: w, length: obj.Size}
	if _, err := s.Get(r.Context(), tn, name, hw); err != nil {
		if !hw.wrote {
			// Nothing sent yet — the error (overload, data loss, ...) can
			// still get a proper status.
			s.httpError(w, err)
			return
		}
		// Headers are out; the short body plus the connection error is all
		// we can signal. Log-equivalent: count it.
		s.metrics.Counter("serve.get.aborted").Inc()
	}
}

// headerOnFirstByte delays Content-Length until the stream actually
// produces bytes, so a Get that fails before its first stripe (admission
// shed, data loss) still maps to an error status instead of an empty
// 200.
type headerOnFirstByte struct {
	w      http.ResponseWriter
	length int
	wrote  bool
}

func (h *headerOnFirstByte) Write(p []byte) (int, error) {
	if !h.wrote {
		h.wrote = true
		h.w.Header().Set("Content-Length", strconv.Itoa(h.length))
	}
	return h.w.Write(p)
}

func (s *Service) httpDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.Context(), r.PathValue("tenant"), r.PathValue("name")); err != nil {
		s.httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) httpStat(w http.ResponseWriter, r *http.Request) {
	obj, err := s.Stat(r.Context(), r.PathValue("tenant"), r.PathValue("name"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, obj)
}

func (s *Service) httpList(w http.ResponseWriter, r *http.Request) {
	objs, err := s.List(r.PathValue("tenant"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, objs)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func errIsCtx(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
