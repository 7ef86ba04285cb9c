// Package serve is the multi-tenant archive service: a high-throughput
// front door over one archive.Store. It adds the three things the raw store
// does not have — per-tenant namespaces with admission control (so one
// tenant's burst cannot starve another), backpressure (bounded queues that
// shed load with ErrOverloaded instead of collapsing), and a bounded
// hot-stripe read cache that stays coherent with the self-healing data path.
// Replication across sites is fedstore's job.
//
// The data path is streaming and context-first end to end: Put consumes an
// io.Reader and Get produces into an io.Writer stripe by stripe, so peak
// memory per request is O(parallelism × stripe) no matter the object size,
// and cancelling the request context aborts the pipeline promptly at every
// layer down to the backend.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/archive"
	"tornado/internal/obs"
)

// Exported defaults, replaced into zero Config fields by normalize (the
// internal/sim option idiom: zero means default, negative disables).
const (
	// DefaultMaxInflight is the per-tenant concurrent request limit.
	DefaultMaxInflight = 8
	// DefaultMaxQueue is how many further requests per tenant may wait for
	// a slot before new arrivals are shed with ErrOverloaded.
	DefaultMaxQueue = 32
	// DefaultCacheBytes is the hot-stripe read cache budget.
	DefaultCacheBytes = 8 << 20
)

var (
	// ErrOverloaded is backpressure: the tenant's inflight and queue
	// budgets are both full, so the request is shed immediately. Clients
	// should retry with delay (HTTP maps this to 503 + Retry-After).
	ErrOverloaded = errors.New("serve: tenant overloaded")
	// ErrUnknownTenant reports a tenant outside the configured set.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
)

// Config tunes a Service.
type Config struct {
	// Tenants fixes the namespace set; requests for other tenants fail
	// with ErrUnknownTenant. Empty means open admission: tenants are
	// created on first use.
	Tenants []string
	// MaxInflight caps concurrent requests per tenant. 0 means
	// DefaultMaxInflight.
	MaxInflight int
	// MaxQueue caps requests per tenant waiting for an inflight slot;
	// arrivals beyond it are shed with ErrOverloaded. 0 means
	// DefaultMaxQueue, negative means no queueing (shed when saturated).
	MaxQueue int
	// CacheBytes is the hot-stripe cache budget. Zero or negative means
	// DefaultCacheBytes: the cache is always on.
	CacheBytes int
	// Metrics receives the service counters (serve.*). Nil gets a private
	// registry, still readable via Service.Metrics.
	Metrics *obs.Registry
}

func (c Config) normalize() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// tenant is one namespace's admission state.
type tenant struct {
	sem    chan struct{} // inflight slots
	queued atomic.Int64  // requests waiting for a slot
}

// Service fronts one archive store with tenancy, admission and caching. It
// is safe for concurrent use.
type Service struct {
	store *archive.Store
	cfg   Config

	mu      sync.Mutex
	tenants map[string]*tenant

	cache *stripeCache

	metrics      *obs.Registry
	mPuts        *obs.Counter
	mGets        *obs.Counter
	mDeletes     *obs.Counter
	mOverloaded  *obs.Counter
	mShedCtx     *obs.Counter
	mRepairBytes *obs.Counter
	hPutLatency  *obs.Histogram
	hGetLatency  *obs.Histogram
}

// New builds a service over st.
func New(st *archive.Store, cfg Config) (*Service, error) {
	cfg = cfg.normalize()
	for _, tn := range cfg.Tenants {
		if err := checkTenantName(tn); err != nil {
			return nil, err
		}
	}
	s := &Service{
		store:        st,
		cfg:          cfg,
		tenants:      make(map[string]*tenant),
		cache:        newStripeCache(cfg.CacheBytes, cfg.Metrics),
		metrics:      cfg.Metrics,
		mPuts:        cfg.Metrics.Counter("serve.puts"),
		mGets:        cfg.Metrics.Counter("serve.gets"),
		mDeletes:     cfg.Metrics.Counter("serve.deletes"),
		mOverloaded:  cfg.Metrics.Counter("serve.overloaded"),
		mShedCtx:     cfg.Metrics.Counter("serve.cancelled_waiting"),
		mRepairBytes: cfg.Metrics.Counter("serve.repair.bytes"),
		hPutLatency:  cfg.Metrics.Histogram("serve.put.latency"),
		hGetLatency:  cfg.Metrics.Histogram("serve.get.latency"),
	}
	for _, tn := range cfg.Tenants {
		s.tenants[tn] = &tenant{sem: make(chan struct{}, cfg.MaxInflight)}
	}
	return s, nil
}

// Metrics returns the service registry (serve.* counters and histograms).
func (s *Service) Metrics() *obs.Registry { return s.metrics }

func checkTenantName(tn string) error {
	if tn == "" || strings.ContainsAny(tn, "\x00/") {
		return fmt.Errorf("%w: %q (must be non-empty, no '/' or NUL)", ErrUnknownTenant, tn)
	}
	return nil
}

// key maps (tenant, object) into the flat store namespace. The NUL
// separator cannot appear in a tenant name, so the mapping is injective —
// tenant "a" with object "b/c" can never collide with tenant "a/b".
func key(tn, name string) string { return tn + "\x00" + name }

// tenantFor resolves (or, under open admission, creates) a tenant.
func (s *Service) tenantFor(tn string) (*tenant, error) {
	if err := checkTenantName(tn); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tn]
	if !ok {
		if len(s.cfg.Tenants) > 0 {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tn)
		}
		t = &tenant{sem: make(chan struct{}, s.cfg.MaxInflight)}
		s.tenants[tn] = t
	}
	return t, nil
}

// admit takes one of the tenant's inflight slots, queueing up to MaxQueue
// waiters and shedding everything beyond with ErrOverloaded. The returned
// release must be called when the request finishes.
func (s *Service) admit(ctx context.Context, tn string) (release func(), err error) {
	t, err := s.tenantFor(tn)
	if err != nil {
		return nil, err
	}
	release = func() { <-t.sem }
	select {
	case t.sem <- struct{}{}: // free slot, no queueing
		return release, nil
	default:
	}
	if t.queued.Add(1) > int64(s.cfg.MaxQueue) {
		t.queued.Add(-1)
		s.mOverloaded.Inc()
		return nil, fmt.Errorf("%w: %q", ErrOverloaded, tn)
	}
	defer t.queued.Add(-1)
	select {
	case t.sem <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		s.mShedCtx.Inc()
		return nil, ctx.Err()
	}
}

// Put ingests an object for a tenant, streaming it into the store at
// archive.DefaultStreamParallelism. A failed Put leaves no object behind.
func (s *Service) Put(ctx context.Context, tn, name string, r io.Reader) (int, error) {
	release, err := s.admit(ctx, tn)
	if err != nil {
		return 0, err
	}
	defer release()
	start := time.Now()
	defer func() { s.hPutLatency.Observe(time.Since(start)) }()
	s.mPuts.Inc()
	k := key(tn, name)
	defer s.cache.invalidate(k)
	return s.store.PutStream(ctx, k, r)
}

// Get streams an object to w stripe by stripe, serving hot stripes from
// the cache and decoding the rest from the store.
func (s *Service) Get(ctx context.Context, tn, name string, w io.Writer) (int, error) {
	release, err := s.admit(ctx, tn)
	if err != nil {
		return 0, err
	}
	defer release()
	start := time.Now()
	defer func() { s.hGetLatency.Observe(time.Since(start)) }()
	s.mGets.Inc()
	k := key(tn, name)
	obj, err := s.store.Stat(k)
	if err != nil {
		return 0, err
	}
	lay := s.store.Layout()
	written := 0
	for st := 0; st < obj.Stripes; st++ {
		if err := ctx.Err(); err != nil {
			return written, err
		}
		want := min(obj.Size-st*lay.StripeCapacity, lay.StripeCapacity)
		payload, ent, err := s.stripe(ctx, k, st, want)
		if err != nil {
			return written, err
		}
		if len(payload) != want {
			s.cache.unpin(ent)
			return written, fmt.Errorf("serve: %q stripe %d: got %d bytes, want %d", name, st, len(payload), want)
		}
		n, werr := w.Write(payload)
		s.cache.unpin(ent) // an io.Writer does not retain p
		written += n
		if werr != nil {
			return written, fmt.Errorf("serve: get %q: %w", name, werr)
		}
	}
	return written, nil
}

// stripe returns one decoded stripe payload of size bytes, via the cache when
// possible. The payload is shared (cache-resident), must not be mutated, and
// is the caller's to read until it unpins the returned entry; a miss decodes
// into a buffer the cache recycled.
func (s *Service) stripe(ctx context.Context, k string, st, size int) ([]byte, *cacheEntry, error) {
	ent, ok := s.cache.get(k, st)
	if ok {
		return ent.payload, ent, nil
	}
	payload, stats, err := s.store.ReadStripeInto(ctx, k, st, s.cache.take(size))
	if err != nil {
		s.cache.abandon(ent)
		return nil, nil, err
	}
	// Repair traffic accounting: the store's repairbw meter attributed this
	// read's bill byte-exactly (degraded-get amplification plus read-repair
	// write-backs); surface the total on the service counter.
	if b := stats.Repair.Bytes(); b > 0 {
		s.mRepairBytes.Add(b)
	}
	return payload, s.cache.add(ent, payload), nil
}

// Delete removes a tenant's object.
func (s *Service) Delete(ctx context.Context, tn, name string) error {
	release, err := s.admit(ctx, tn)
	if err != nil {
		return err
	}
	defer release()
	s.mDeletes.Inc()
	k := key(tn, name)
	s.cache.invalidate(k)
	return s.store.DeleteCtx(ctx, k)
}

// Stat returns a tenant's object metadata (Name is the tenant-relative
// object name).
func (s *Service) Stat(ctx context.Context, tn, name string) (archive.Object, error) {
	if _, err := s.tenantFor(tn); err != nil {
		return archive.Object{}, err
	}
	obj, err := s.store.Stat(key(tn, name))
	if err != nil {
		return archive.Object{}, err
	}
	obj.Name = name
	return obj, nil
}

// List returns a tenant's objects (tenant-relative names).
func (s *Service) List(tn string) ([]archive.Object, error) {
	if _, err := s.tenantFor(tn); err != nil {
		return nil, err
	}
	prefix := tn + "\x00"
	var out []archive.Object
	for _, obj := range s.store.List() {
		if strings.HasPrefix(obj.Name, prefix) {
			obj.Name = obj.Name[len(prefix):]
			out = append(out, obj)
		}
	}
	return out, nil
}
