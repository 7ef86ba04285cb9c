package serve

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"tornado/internal/obs"
)

// stripeCache is a byte-budgeted LRU over decoded stripe payloads — the
// serve layer's hot-block cache. Entries are whole stripes (the store's
// cache-fill granularity), keyed by flat object key and stripe index.
//
// Coherence: cached payloads are decoded plaintext, so backend-level
// healing (read-repair, scrub rewrites) never changes them — repair is
// bit-exact by construction. The only mutations that change payload bytes
// are object-level (Delete, re-Put), and the service invalidates the
// object's entries on both — and its fills in flight: a miss registers the
// entry it will fill, an invalidation voids it, and a voided fill is handed
// to its reader but never inserted, so a read that raced a Delete and re-Put
// cannot leave what it decoded behind for later readers. Cached slices are
// shared between callers and must be treated as read-only.
//
// Ownership: the cache owns every payload buffer it hands out, and recycles
// them. A reader pins the entry it gets (get, or add on a miss) and unpins it
// once it is done with the payload; an entry that is evicted, invalidated or
// replaced drops the cache's own reference. Whoever drops the last reference
// puts the buffer on the free list, exactly once, and the next miss of that
// size decodes into it instead of allocating.
type stripeCache struct {
	mu     sync.Mutex
	budget int
	bytes  int        // cap of every resident payload
	ll     *list.List // front = most recently used
	items  map[cacheKey]*list.Element
	// pending holds the fills of the misses in flight, until add or abandon
	// resolves them; invalidate takes an object's out, voiding them.
	pending map[*cacheEntry]struct{}

	// free holds released payload buffers, oldest first: at most freeBuffers
	// of them and no more bytes of cap than the budget. Past that the oldest
	// are dropped, so a size no miss asks for any more ages out.
	free      [][]byte
	freeBytes int

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	gBytes    *obs.Gauge
}

// freeBuffers bounds the free list: enough to keep a payload ready for every
// miss a service has in flight, which the admission limits keep small.
const freeBuffers = 8

type cacheKey struct {
	key    string
	stripe int
}

type cacheEntry struct {
	k       cacheKey
	payload []byte
	// refs is one for the cache while the entry is resident plus one per
	// reader holding it pinned.
	refs atomic.Int32
}

func newStripeCache(budget int, reg *obs.Registry) *stripeCache {
	return &stripeCache{
		budget:    budget,
		ll:        list.New(),
		items:     make(map[cacheKey]*list.Element),
		pending:   make(map[*cacheEntry]struct{}),
		hits:      reg.Counter("serve.cache.hits"),
		misses:    reg.Counter("serve.cache.misses"),
		evictions: reg.Counter("serve.cache.evictions"),
		gBytes:    reg.Gauge("serve.cache.bytes"),
	}
}

// get returns the cached entry, pinned, and refreshes its recency; the
// caller reads its payload (shared, read-only) and then unpins it. On a miss
// it returns false and the pending fill of the stripe instead, which the
// caller completes with add or drops with abandon.
func (c *stripeCache) get(key string, stripe int) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[cacheKey{key, stripe}]
	if !ok {
		c.misses.Inc()
		fill := &cacheEntry{k: cacheKey{key, stripe}}
		c.pending[fill] = struct{}{}
		return fill, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	ent := el.Value.(*cacheEntry)
	ent.refs.Add(1)
	return ent, true
}

// unpin drops a reader's reference to ent.
func (c *stripeCache) unpin(ent *cacheEntry) {
	if ent.refs.Add(-1) > 0 {
		return
	}
	c.mu.Lock()
	c.recycleLocked(ent.payload)
	c.mu.Unlock()
}

// take returns a free buffer of exactly size bytes of cap, emptied, or nil
// when there is none.
func (c *stripeCache) take(size int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.free) - 1; i >= 0; i-- {
		if b := c.free[i]; cap(b) == size {
			c.free = slices.Delete(c.free, i, i+1)
			c.freeBytes -= size
			return b[:0]
		}
	}
	return nil
}

// add completes a miss's fill with its payload, taking ownership of the
// slice, inserts it, evicts from the cold end until the budget holds, and
// returns the entry pinned for the caller. A fill an invalidation voided, or
// a payload larger than the whole budget, is not cached: its entry is the
// caller's alone.
func (c *stripeCache) add(ent *cacheEntry, payload []byte) *cacheEntry {
	ent.payload = payload
	ent.refs.Store(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, live := c.pending[ent]
	delete(c.pending, ent)
	if !live || cap(payload) > c.budget {
		return ent
	}
	ent.refs.Add(1)
	if el, ok := c.items[ent.k]; ok {
		// A re-read after invalidation raced another: the newer one stays.
		c.removeLocked(el)
	}
	c.items[ent.k] = c.ll.PushFront(ent)
	c.bytes += cap(payload)
	for c.bytes > c.budget {
		c.removeLocked(c.ll.Back())
		c.evictions.Inc()
	}
	c.gBytes.Set(int64(c.bytes))
	return ent
}

// abandon drops a miss's fill that will not be completed.
func (c *stripeCache) abandon(fill *cacheEntry) {
	c.mu.Lock()
	delete(c.pending, fill)
	c.mu.Unlock()
}

// invalidate drops every cached stripe of one object (Delete / re-Put) and
// voids its fills in flight.
func (c *stripeCache) invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for fill := range c.pending {
		if fill.k.key == key {
			delete(c.pending, fill)
		}
	}
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).k.key == key {
			c.removeLocked(el)
		}
		el = next
	}
	c.gBytes.Set(int64(c.bytes))
}

// removeLocked takes an entry out of the cache and drops the cache's
// reference to it.
func (c *stripeCache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.k)
	c.bytes -= cap(ent.payload)
	if ent.refs.Add(-1) == 0 {
		c.recycleLocked(ent.payload)
	}
}

// recycleLocked puts a buffer nobody references any more on the free list
// (one too large to be cached is dropped).
func (c *stripeCache) recycleLocked(b []byte) {
	if cap(b) > c.budget {
		return
	}
	c.free = append(c.free, b)
	c.freeBytes += cap(b)
	for len(c.free) > freeBuffers || c.freeBytes > c.budget {
		c.freeBytes -= cap(c.free[0])
		c.free = slices.Delete(c.free, 0, 1)
	}
}
