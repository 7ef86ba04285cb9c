package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters never decrease
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("requests") != c {
		t.Error("same name returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 4*time.Millisecond || mean > 7*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
	// p50 lands in the 100µs bucket (bound 128µs); p99 in the 50ms bucket.
	if q := h.Quantile(0.5); q < 100*time.Microsecond || q > 256*time.Microsecond {
		t.Errorf("p50 = %v", q)
	}
	if q := h.Quantile(0.99); q < 50*time.Millisecond || q > 128*time.Millisecond {
		t.Errorf("p99 = %v", q)
	}
	if h.Quantile(1) < h.Quantile(0) {
		t.Error("quantiles not monotone")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram not all-zero")
	}
}

func TestSnapshotAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Gauge("b").Set(7)
	r.Histogram("lat").Observe(time.Millisecond)

	snap := r.Snapshot()
	if snap.Counters["a"] != 2 || snap.Gauges["b"] != 7 || snap.Histograms["lat"].Count != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.String() == "" {
		t.Error("flat rendering empty")
	}

	rec := httptest.NewRecorder()
	MergedHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var decoded Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("handler output not JSON: %v", err)
	}
	if decoded.Counters["a"] != 2 {
		t.Errorf("handler snapshot = %+v", decoded)
	}
}

// TestConcurrency exercises every metric type from many goroutines; run
// with -race.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
