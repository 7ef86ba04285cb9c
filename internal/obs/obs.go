// Package obs is the reproduction's stdlib-only observability layer:
// counters, gauges, and latency histograms collected in a Registry and
// exported as a JSON snapshot (expvar-style) or over HTTP. The federation
// stack threads a Registry through the site client, the site server, and
// the federated store so that bounded-latency behavior — retries, per-route request
// timing, site-down detections — is visible rather than inferred from
// logs.
//
// All metric types are safe for concurrent use. Counters and gauges are
// single atomics; histograms take a short mutex per observation.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored; counters never decrease).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, health flag, site count).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the level by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the bucket count of a latency histogram: bucket i counts
// observations with ceil(log2(µs)) == i, so the range spans 1µs..2^47µs
// (~4.5 years) — every latency this system can produce.
const histBuckets = 48

// Histogram is a latency histogram over exponential (power-of-two
// microsecond) buckets. The exponential layout keeps it fixed-size and
// allocation-free while preserving order-of-magnitude resolution, which is
// what operating decisions (is this call 1ms or 1s?) actually use.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     int64 // microseconds
	max     int64 // microseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us)) // ceil(log2(us+1)): 0 → 0, 1 → 1, 1000 → 10
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.mu.Lock()
	h.buckets[b]++
	h.count++
	h.sum += us
	if us > h.max {
		h.max = us
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum/h.count) * time.Microsecond
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// top edge of the bucket containing it. The bound is within 2× of the true
// value by construction.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen > rank {
			// Bucket b holds values in (2^(b-1), 2^b] microseconds.
			return time.Duration(int64(1)<<b) * time.Microsecond
		}
	}
	return time.Duration(h.max) * time.Microsecond
}

// stats snapshots a histogram.
func (h *Histogram) stats() HistogramStats {
	s := HistogramStats{
		Count:      h.Count(),
		MeanMicros: h.Mean().Microseconds(),
		P50Micros:  h.Quantile(0.50).Microseconds(),
		P95Micros:  h.Quantile(0.95).Microseconds(),
		P99Micros:  h.Quantile(0.99).Microseconds(),
	}
	h.mu.Lock()
	s.MaxMicros = h.max
	h.mu.Unlock()
	return s
}

// HistogramStats is the exported summary of one latency histogram, in
// microseconds (quantiles are bucket upper bounds).
type HistogramStats struct {
	Count      int64 `json:"count"`
	MeanMicros int64 `json:"mean_us"`
	P50Micros  int64 `json:"p50_us"`
	P95Micros  int64 `json:"p95_us"`
	P99Micros  int64 `json:"p99_us"`
	MaxMicros  int64 `json:"max_us"`
}

// Registry is a named collection of metrics. Lookups are get-or-create, so
// instrumentation sites never need registration ceremony; the same name
// always returns the same metric.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of a registry, stable under JSON
// encoding (map keys sort lexically when marshaled).
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot exports every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramStats, len(hists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.stats()
	}
	return s
}

// WriteTo renders the snapshot as sorted "name value" lines — the
// greppable flat form for logs and CLI output.
func (s Snapshot) String() string {
	type line struct{ k, v string }
	var lines []line
	for k, v := range s.Counters {
		lines = append(lines, line{k, fmt.Sprintf("%d", v)})
	}
	for k, v := range s.Gauges {
		lines = append(lines, line{k, fmt.Sprintf("%d", v)})
	}
	for k, v := range s.Histograms {
		lines = append(lines, line{k, fmt.Sprintf("count=%d mean=%dµs p99=%dµs", v.Count, v.MeanMicros, v.P99Micros)})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].k < lines[j].k })
	out := ""
	for _, l := range lines {
		out += l.k + " " + l.v + "\n"
	}
	return out
}

// MergeSnapshots unions snapshots into one: counters sharing a name are
// summed (they count the same events observed from different registries);
// for gauges and histograms a later snapshot wins. Registries that use
// disjoint name prefixes (http.*, archive.*, chaos.*) merge losslessly.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			out.Histograms[k] = v
		}
	}
	return out
}

// MergedHandler serves the union of several registries as one JSON
// snapshot (see MergeSnapshots) — the steward server uses it to export its
// HTTP request metrics next to the archive store's self-healing and scrub
// counters on a single /metrics route.
func MergedHandler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snaps := make([]Snapshot, len(regs))
		for i, r := range regs {
			snaps[i] = r.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(MergeSnapshots(snaps...))
	})
}
