package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"time"
)

const tenant = "bench"

// serveRunner is serve_hot and serve_cold: two closed-loop clients against one
// serve.Service over one archive store. Closed loop because archive callers
// wait for each reply before sending the next request.
type serveRunner struct {
	e     *env
	hot   bool
	g     *Graph
	store *Store
	shim  *backendShim // traced runs only
	svc   *Service
	pay   *payloads

	objects  int
	ops      int // per round, both clients together
	rngs     [clients]*rand.Rand
	zipf     [clients]*rand.Zipf
	putCount [clients]int

	// Counter baselines, taken when the first measured round starts.
	based    bool
	base     serveCounters
	baseShim shimCounts
}

type serveCounters struct{ gets, hits, misses, evictions, overloaded int64 }

func (s *serveRunner) counters() serveCounters {
	m := s.svc.Metrics()
	return serveCounters{
		gets:       m.Counter("serve.gets").Value(),
		hits:       m.Counter("serve.cache.hits").Value(),
		misses:     m.Counter("serve.cache.misses").Value(),
		evictions:  m.Counter("serve.cache.evictions").Value(),
		overloaded: m.Counter("serve.overloaded").Value(),
	}
}

func buildServeHot(e *env) (runner, error)  { return buildServe(e, true) }
func buildServeCold(e *env) (runner, error) { return buildServe(e, false) }

func buildServe(e *env, hot bool) (runner, error) {
	s := &serveRunner{e: e, hot: hot, objects: e.sz.ColdObjects, ops: e.sz.ColdOps}
	if hot {
		s.objects, s.ops = e.sz.HotObjects, e.sz.HotGets
	}
	var err error
	if s.g, err = generate(96, e.seed); err != nil {
		return nil, err
	}
	devs := newDevices(s.g.Total)
	if e.trace {
		s.store, s.shim, err = newShimStore(s.g, devs, e.tr)
	} else {
		s.store, err = newStore(s.g, devs)
	}
	if err != nil {
		return nil, err
	}
	if s.svc, err = newService(s.store); err != nil {
		return nil, err
	}
	s.pay = newPayloads(e.seed, e.sz.ObjectBytes)
	for c := range s.rngs {
		s.rngs[c] = pcg(e.seed, streamClient+uint64(c))
		s.zipf[c] = rand.NewZipf(s.rngs[c], 1.1, 1, uint64(s.objects-1))
	}
	for k := 0; k < s.objects; k++ {
		ctx, cancel := opCtx(context.Background())
		_, err := s.svc.Put(ctx, tenant, objectName(k), s.pay.reader(k))
		cancel()
		if err != nil {
			return nil, fmt.Errorf("preload %s: %w", objectName(k), err)
		}
	}
	ctx, cancel := opCtx(context.Background())
	defer cancel()
	if _, _, err := s.store.ReadStripe(ctx, serveStoreKey(tenant, objectName(0)), 0); err != nil {
		return nil, fmt.Errorf("serve no longer names objects tenant+NUL+name in its store (api.go serveStoreKey): %w", err)
	}
	return s, nil
}

// get issues one Get and verifies the payload; it returns the latency.
func (s *serveRunner) get(k int) (time.Duration, bool) {
	ctx, cancel := opCtx(context.Background())
	defer cancel()
	sp := s.e.tr.root("serve.Get")
	v := &verifier{want: s.pay.object(k)}
	var w io.Writer = v
	if sp != nil {
		w = spanWriter{v, s.e.tr, sp.reference()}
	}
	t0 := time.Now()
	_, err := s.svc.Get(sp.ctx(ctx), tenant, objectName(k), w)
	d := time.Since(t0)
	sp.end()
	return d, err == nil && v.ok()
}

// put ingests a fresh object and, untimed, deletes it again so the resident
// set stays the preloaded one.
func (s *serveRunner) put(k int) (time.Duration, bool) {
	ctx, cancel := opCtx(context.Background())
	defer cancel()
	sp := s.e.tr.root("serve.Put")
	var r io.Reader = s.pay.reader(k)
	if sp != nil {
		r = spanReader{r, s.e.tr, sp.reference()}
	}
	t0 := time.Now()
	n, err := s.svc.Put(sp.ctx(ctx), tenant, objectName(k), r)
	d := time.Since(t0)
	sp.end()
	ok := err == nil && n == s.pay.size
	if err == nil {
		ok = s.svc.Delete(ctx, tenant, objectName(k)) == nil && ok
	}
	return d, ok
}

// clientLog is what one client measured in one round: latencies in
// nanoseconds.
type clientLog struct {
	getNs, putNs []float64
	failed       int
}

func (s *serveRunner) client(c, ops int) clientLog {
	log := clientLog{getNs: make([]float64, 0, ops)}
	rng := s.rngs[c]
	for i := 0; i < ops; i++ {
		var d time.Duration
		var ok bool
		switch {
		case s.hot:
			d, ok = s.get(int(s.zipf[c].Uint64()))
			log.getNs = append(log.getNs, float64(d))
		case rng.IntN(10) == 0:
			s.putCount[c]++
			// Fresh keys live above the preloaded range, apart per client.
			d, ok = s.put(s.objects + c*1000000 + s.putCount[c])
			log.putNs = append(log.putNs, float64(d))
		default:
			d, ok = s.get(rng.IntN(s.objects))
			log.getNs = append(log.getNs, float64(d))
		}
		if !ok {
			log.failed++
		}
	}
	return log
}

func (s *serveRunner) round() error {
	if !s.e.discard && !s.based {
		s.based, s.base = true, s.counters()
		if s.shim != nil {
			s.baseShim = s.shim.snapshot()
		}
	}
	logs := make([]clientLog, clients)
	wall := s.e.timed(func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				logs[c] = s.client(c, s.ops/clients)
			}(c)
		}
		wg.Wait()
	})
	var getNs, putNs []float64
	for _, l := range logs {
		getNs = append(getNs, l.getNs...)
		putNs = append(putNs, l.putNs...)
		s.e.ops(len(l.getNs)+len(l.putNs), l.failed)
	}
	s.e.add("ops_per_s", float64(len(getNs)+len(putNs))/wall.Seconds())
	s.e.add("get_p50_us", latencyQuantile(getNs, 0.50)/1e3)
	s.e.add("get_p99_us", latencyQuantile(getNs, 0.99)/1e3)
	if len(putNs) > 0 {
		s.e.add("put_p50_us", latencyQuantile(putNs, 0.50)/1e3)
		s.e.add("put_p95_us", latencyQuantile(putNs, 0.95)/1e3)
	}
	return nil
}

func (s *serveRunner) reset() error { return nil }

func (s *serveRunner) layers() error {
	e := s.e
	// Counters over the measured rounds (untraced and traced alike).
	c := s.counters()
	gets := float64(c.gets - s.base.gets)
	e.set("serve.cache_hit_ratio", float64(c.hits-s.base.hits)/float64(c.hits-s.base.hits+c.misses-s.base.misses))
	e.set("serve.cache_evictions", float64(c.evictions-s.base.evictions))
	e.set("serve.overloaded", float64(c.overloaded-s.base.overloaded))
	dev := s.shim.snapshot().sub(s.baseShim)
	e.set("device.reads_per_get", float64(dev.reads)/gets)
	if dev.reads > 0 {
		e.set("device.read_block_ns", float64(dev.readNs)/float64(dev.reads))
		e.set("device.read_bytes_per_user_byte", float64(dev.readBytes)/(gets*float64(s.pay.size)))
	}
	if dev.writes > 0 {
		e.set("device.write_block_ns", float64(dev.writeNs)/float64(dev.writes))
	}

	// The hit path: an object read twice in a row is served from the cache
	// the second time.
	var hitNs []float64
	for i := 0; i < 400; i++ {
		k := i % s.objects
		if !s.hot {
			s.get(k) // fill
		}
		d, ok := s.get(k)
		e.op(ok)
		hitNs = append(hitNs, float64(d.Nanoseconds()))
	}
	hit := median(hitNs)
	e.set("serve.get_hit_ns", hit)
	getP50 := e.value("get_p50_us")
	if s.hot {
		e.line("get: serve hit path", hit/1e3, "us", hit/1e3/getP50, "single client, includes the harness's payload comparison")
		return nil
	}
	return s.coldLayers(hit, getP50)
}

// coldLayers replays, for objects the service just served from a cold cache,
// the archive calls underneath, and splits a miss into its layers.
func (s *serveRunner) coldLayers(hitNs, getP50us float64) error {
	e := s.e
	ctx, cancel := passCtx()
	defer cancel()
	rng := pcg(e.seed, streamClient+clients)
	lay := s.store.Layout()
	stripes := (s.pay.size + lay.StripeCapacity - 1) / lay.StripeCapacity

	var missNs, stripeNs, overheadNs, blocks []float64
	for i := 0; i < 300; i++ {
		k := rng.IntN(s.objects)
		before := s.counters()
		d, ok := s.get(k)
		e.op(ok)
		after := s.counters()
		missed := after.misses-before.misses == int64(stripes)
		// Replay the archive layer on the same object.
		var sum time.Duration
		for st := 0; st < stripes; st++ {
			sp := e.tr.root("archive.ReadStripe")
			t0 := time.Now()
			_, stats, err := s.store.ReadStripe(sp.ctx(ctx), serveStoreKey(tenant, objectName(k)), st)
			dt := time.Since(t0)
			sp.end()
			if err != nil {
				return err
			}
			sum += dt
			stripeNs = append(stripeNs, float64(dt.Nanoseconds()))
			blocks = append(blocks, float64(stats.BlocksRead))
		}
		if missed {
			missNs = append(missNs, float64(d.Nanoseconds()))
			overheadNs = append(overheadNs, float64((d - sum).Nanoseconds()))
		}
	}
	if len(missNs) == 0 {
		return invalidf("no Get of 300 missed the cache on serve_cold")
	}
	e.set("serve.get_miss_overhead_ns", median(overheadNs))
	e.set("archive.read_stripe_healthy_us", median(stripeNs)/1e3)
	e.set("archive.blocks_read_per_stripe_healthy", mean(blocks))

	// Put: the service against the archive call it wraps.
	var svcPut, arcPut, arcPutSeq []float64
	for i := 0; i < 60; i++ {
		k := s.objects + 5000000 + i
		d, ok := s.put(k)
		e.op(ok)
		svcPut = append(svcPut, float64(d.Nanoseconds()))
		for _, seq := range []bool{false, true} {
			sp := e.tr.root("archive.PutStream")
			t0 := time.Now()
			var err error
			if seq {
				_, err = putStreamSeq(sp.ctx(ctx), s.store, objectName(k), s.pay.reader(k))
			} else {
				_, err = putStream(sp.ctx(ctx), s.store, objectName(k), s.pay.reader(k))
			}
			dt := float64(time.Since(t0).Nanoseconds())
			sp.end()
			if err != nil {
				return err
			}
			if seq {
				arcPutSeq = append(arcPutSeq, dt)
			} else {
				arcPut = append(arcPut, dt)
			}
			if err := s.store.DeleteCtx(ctx, objectName(k)); err != nil {
				return err
			}
		}
	}
	e.set("serve.put_overhead_ns", median(svcPut)-median(arcPut))
	e.set("archive.put_stripe_us", median(arcPutSeq)/1e3/float64(stripes))

	// Allocation counts need the tracer off: spans allocate.
	e.tr.on.Store(false)
	key := serveStoreKey(tenant, objectName(0))
	n, b := allocsPer(200, func() { _, _, _ = s.store.ReadStripe(ctx, key, 0) })
	e.set("archive.get_allocs_per_stripe", n)
	e.set("archive.get_alloc_bytes_per_stripe", b)
	e.set("archive.put_allocs_per_stripe", s.putAllocsPerStripe(ctx, stripes))
	failed := pickDistinct(pcg(e.seed, streamFailures), e.sz.FailedDevices, s.g.Data)
	dl, err := dataLayers(e, s.g, failed)
	if err != nil {
		return err
	}

	// One cold Get, layer by layer, against the untraced median.
	devPerStripe := median(blocks) * e.res.Samples["device.read_block_ns"][0]
	share := func(ns float64) float64 { return ns / 1e3 / getP50us }
	arc := median(stripeNs) * float64(stripes)
	e.line("get: serve hit path", hitNs/1e3, "us", share(hitNs), "admission, cache lookup, in-order write, payload comparison")
	e.line("get: archive.ReadStripe", arc/1e3, "us", share(arc), fmt.Sprintf("%d stripes replayed on the same object", stripes))
	e.line("get:   of which device reads", devPerStripe*float64(stripes)/1e3, "us", share(devPerStripe*float64(stripes)), "blocks read x device.read_block_ns")
	e.line("get:   of which retrieval plan", dl.planHealthyNs*float64(stripes)/1e3, "us", share(dl.planHealthyNs*float64(stripes)), "Planner.PlanEconomic replay")
	e.line("get:   of which codec decode", dl.decodeHealthyNs*float64(stripes)/1e3, "us", share(dl.decodeHealthyNs*float64(stripes)), "Codec.DecodeInto replay")
	unexplained := median(missNs) - hitNs - arc
	e.line("get: unexplained", unexplained/1e3, "us", share(unexplained), "traced miss minus hit path minus archive replay (cache fill, eviction, GC)")
	return nil
}

// putAllocsPerStripe counts allocations of sequential PutStream calls alone
// (the deletes between them are not counted).
func (s *serveRunner) putAllocsPerStripe(ctx context.Context, stripes int) float64 {
	const n = 50
	total := uint64(0)
	for i := 0; i <= n; i++ {
		k := s.objects + 6000000 + i
		c0, _ := mallocs()
		_, _ = putStreamSeq(ctx, s.store, objectName(k), s.pay.reader(k))
		c1, _ := mallocs()
		if i > 0 { // the first call grows lazily sized buffers
			total += c1 - c0
		}
		_ = s.store.DeleteCtx(ctx, objectName(k))
	}
	return float64(total) / n / float64(stripes)
}
