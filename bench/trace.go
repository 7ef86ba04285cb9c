package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary, recorded by the benchmark's own
// files around calls into the repository's exported functions. Spans of one
// request share Req; Parent is the span that caused this one (0 for a root).
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; a traced serve_hot round alone
// issues several hundred thousand calls. Counters keep counting past it.
const maxSpans = 400000

// tracer keeps spans in memory until the run ends. It is off during the
// untraced rounds of a -trace run, so the same shims serve both.
type tracer struct {
	on atomic.Bool
	// sample records one request tree in every sample requests; the layer
	// budget scales the sampled self times back up.
	sample  int64
	epoch   time.Time
	nextID  atomic.Int64
	nextReq atomic.Int64
	mu      sync.Mutex
	spans   []Span
	dropped int64
}

func newTracer(sample int) *tracer {
	return &tracer{sample: int64(max(sample, 1)), epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// spanRef is what a context carries so that a shim several layers down (the
// backend under archive under serve) can name its parent.
type spanRef struct{ id, req int64 }

type spanKey struct{}

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// open is a started span; end records it.
type open struct {
	t     *tracer
	ref   spanRef
	par   int64
	name  string
	start time.Time
}

// start opens a span under parent. A nil or disabled tracer, or a parent that
// was not sampled, returns a nil *open, whose end is a no-op, so call sites
// need no guards and no span is ever recorded without its request.
func (t *tracer) start(parent spanRef, name string) *open {
	if t == nil || parent.req == 0 || !t.on.Load() {
		return nil
	}
	return &open{t: t, ref: spanRef{id: t.nextID.Add(1), req: parent.req}, par: parent.id, name: name, start: time.Now()}
}

// root opens the first span of a new request, if the request is sampled.
func (t *tracer) root(name string) *open {
	if t == nil || !t.on.Load() {
		return nil
	}
	req := t.nextReq.Add(1)
	if req%t.sample != 0 {
		return nil
	}
	return t.start(spanRef{req: req}, name)
}

// ctx returns a context that carries the span as parent for the shims below.
func (o *open) ctx(parent context.Context) context.Context {
	if o == nil {
		return parent
	}
	return context.WithValue(parent, spanKey{}, o.ref)
}

func (o *open) reference() spanRef {
	if o == nil {
		return spanRef{}
	}
	return o.ref
}

func (o *open) end() {
	if o == nil {
		return
	}
	end := time.Now()
	t := o.t
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{ID: o.ref.id, Parent: o.par, Req: o.ref.req, Name: o.name,
			StartNs: o.start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int64  `json:"dropped"`
		Spans   []Span `json:"spans"`
	}{t.dropped, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf is the module a span belongs to: the part of its name before the
// first dot ("device.read" -> "device").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes attributes the wall time of every request tree to the spans in it
// and returns, per span name, the attributed nanoseconds and the call count,
// plus the longest span outside the harness's own. A span's self time is its
// duration minus the part of it its child spans cover. Children that overlap
// one another (two pipeline workers under one PutStream) are busy at the same
// time, so their subtrees are scaled by covered-time / summed-duration: the
// attributions of one tree then sum to exactly its root's duration, and a
// layer's share is a share of wall-clock time, not of busy time.
func (t *tracer) selfTimes() (self map[string]float64, calls map[string]int64, largest Span) {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if layerOf(s.Name) != "harness" && s.EndNs-s.StartNs > largest.EndNs-largest.StartNs {
			largest = s
		}
	}
	self = map[string]float64{}
	calls = map[string]int64{}
	var walk func(s Span, weight float64)
	walk = func(s Span, weight float64) {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, summed, curEnd := int64(0), int64(0), s.StartNs
		for _, k := range kids {
			summed += k.EndNs - k.StartNs
			lo, hi := max(k.StartNs, curEnd), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				curEnd = hi
			}
		}
		self[s.Name] += weight * float64((s.EndNs-s.StartNs)-covered)
		calls[s.Name]++
		if summed > 0 {
			weight *= float64(covered) / float64(summed)
		}
		for _, k := range kids {
			walk(k, weight)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			walk(s, 1)
		}
	}
	return self, calls, largest
}

// backendShim is the benchmark-owned Backend injected under an archive store
// in the traced run: it counts and times every block read and write, and —
// while the tracer is on — records each as a child span of the request whose
// context reached it.
type backendShim struct {
	Backend
	t *tracer
	// countOnly keeps the counters and timers but records no spans.
	countOnly bool

	reads, writes           atomic.Int64
	readBytes, writtenBytes atomic.Int64
	readNs, writeNs         atomic.Int64
}

func (b *backendShim) Read(ctx context.Context, node int, key []byte) ([]byte, error) {
	sp := b.span(ctx, "device.read")
	t0 := time.Now()
	data, err := b.Backend.Read(ctx, node, key)
	b.readNs.Add(time.Since(t0).Nanoseconds())
	sp.end()
	b.reads.Add(1)
	b.readBytes.Add(int64(len(data)))
	return data, err
}

func (b *backendShim) Write(ctx context.Context, node int, key []byte, data []byte) error {
	sp := b.span(ctx, "device.write")
	t0 := time.Now()
	err := b.Backend.Write(ctx, node, key, data)
	b.writeNs.Add(time.Since(t0).Nanoseconds())
	sp.end()
	b.writes.Add(1)
	b.writtenBytes.Add(int64(len(data)))
	return err
}

func (b *backendShim) span(ctx context.Context, name string) *open {
	if b.countOnly {
		return nil
	}
	return b.t.start(refFrom(ctx), name)
}

// shimCounts is a snapshot of a backendShim's counters.
type shimCounts struct{ reads, writes, readBytes, writtenBytes, readNs, writeNs int64 }

func (b *backendShim) snapshot() shimCounts {
	return shimCounts{b.reads.Load(), b.writes.Load(), b.readBytes.Load(), b.writtenBytes.Load(), b.readNs.Load(), b.writeNs.Load()}
}

func (a shimCounts) sub(b shimCounts) shimCounts {
	return shimCounts{a.reads - b.reads, a.writes - b.writes, a.readBytes - b.readBytes,
		a.writtenBytes - b.writtenBytes, a.readNs - b.readNs, a.writeNs - b.writeNs}
}

// spanWriter and spanReader put a span around every Write/Read the system
// makes into the harness's sink or source: time spent there is the
// harness's (payload comparison, payload copy), not the system's.
type spanWriter struct {
	w   io.Writer
	t   *tracer
	ref spanRef
}

func (s spanWriter) Write(p []byte) (int, error) {
	sp := s.t.start(s.ref, "harness.write")
	n, err := s.w.Write(p)
	sp.end()
	return n, err
}

type spanReader struct {
	r   io.Reader
	t   *tracer
	ref spanRef
}

func (s spanReader) Read(p []byte) (int, error) {
	sp := s.t.start(s.ref, "harness.read")
	n, err := s.r.Read(p)
	sp.end()
	return n, err
}
