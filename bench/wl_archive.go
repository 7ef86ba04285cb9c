package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"
)

// lifecycleRunner is archive_lifecycle: the archive layer alone, through the
// four things an archive does with bulk data — ingest, restore, restore around
// failed devices, and repair after they are replaced.
type lifecycleRunner struct {
	e      *env
	g      *Graph
	devs   Devices
	store  *Store
	shim   *backendShim // traced runs only
	pay    *payloads
	failed []int // the data-node devices that fail, fixed by the seed
}

func buildLifecycle(e *env) (runner, error) {
	l := &lifecycleRunner{e: e}
	var err error
	if l.g, err = generate(96, e.seed); err != nil {
		return nil, err
	}
	l.devs = newDevices(l.g.Total)
	if e.trace {
		l.store, l.shim, err = newShimStore(l.g, l.devs, e.tr)
	} else {
		l.store, err = newStore(l.g, l.devs)
	}
	if err != nil {
		return nil, err
	}
	l.pay = newPayloads(e.seed, e.sz.LifecycleBytes)
	l.failed = pickDistinct(pcg(e.seed, streamFailures), e.sz.FailedDevices, l.g.Data)
	return l, nil
}

// ingest stores object k at the default pipeline width.
func (l *lifecycleRunner) ingest(k int) bool {
	ctx, cancel := opCtx(context.Background())
	defer cancel()
	sp := l.e.tr.root("archive.PutStream")
	var r io.Reader = l.pay.reader(k)
	if sp != nil {
		r = spanReader{r, l.e.tr, sp.reference()}
	}
	n, err := putStream(sp.ctx(ctx), l.store, objectName(k), r)
	sp.end()
	return err == nil && n == l.pay.size
}

// restore streams object k back on the sequential path and verifies it.
func (l *lifecycleRunner) restore(k int) bool {
	ctx, cancel := opCtx(context.Background())
	defer cancel()
	sp := l.e.tr.root("archive.GetStream")
	v := &verifier{want: l.pay.object(k)}
	var w io.Writer = v
	if sp != nil {
		w = spanWriter{v, l.e.tr, sp.reference()}
	}
	_, err := getStreamSeq(sp.ctx(ctx), l.store, objectName(k), w)
	sp.end()
	return err == nil && v.ok()
}

// each runs fn over the round's objects and returns user MB per second.
func (l *lifecycleRunner) each(fn func(k int) bool) float64 {
	n := l.e.sz.LifecycleObjects
	d := l.e.timed(func() {
		for k := 0; k < n; k++ {
			l.e.op(fn(k))
		}
	})
	return float64(n) * float64(l.pay.size) / 1e6 / d.Seconds()
}

func (l *lifecycleRunner) round() error {
	e := l.e
	e.add("ingest_mbps", l.each(l.ingest))
	e.add("restore_mbps", l.each(l.restore))
	for _, d := range l.failed {
		l.devs[d].Fail()
	}
	e.add("degraded_restore_mbps", l.each(l.restore))
	for _, d := range l.failed {
		l.devs[d].Replace()
	}

	ctx, cancel := passCtx()
	defer cancel()
	var rep scrubReport
	var err error
	d := e.timed(func() {
		sp := e.tr.root("archive.ScrubCtx")
		rep, err = l.store.ScrubCtx(sp.ctx(ctx), true)
		sp.end()
	})
	e.op(err == nil)
	if err != nil {
		return nil // counted as a failed operation
	}
	lostBlocks := 0
	for _, h := range rep.Stripes {
		if len(h.Repaired) != len(h.Missing) {
			return invalidf("scrub left %s stripe %d with %d of %d missing blocks unrepaired",
				h.Object, h.Stripe, len(h.Missing)-len(h.Repaired), len(h.Missing))
		}
		lostBlocks += len(h.Missing)
	}
	if rep.Unrecoverable != 0 {
		return invalidf("scrub reports %d unrecoverable stripes", rep.Unrecoverable)
	}
	if want := len(l.failed) * len(rep.Stripes); lostBlocks != want {
		return invalidf("scrub found %d missing blocks, want %d", lostBlocks, want)
	}
	e.add("repair_s", d.Seconds())
	// Every byte the scrub read to verify and wrote to repair, over the framed
	// bytes the failed devices held: an exact count.
	e.add("repair_bytes_per_lost_byte", float64(rep.Cost.Bytes())/float64(lostBlocks*l.store.FrameSize()))
	return nil
}

// reset deletes the round's objects, untimed.
func (l *lifecycleRunner) reset() error {
	ctx, cancel := passCtx()
	defer cancel()
	for k := 0; k < l.e.sz.LifecycleObjects; k++ {
		if err := l.store.DeleteCtx(ctx, objectName(k)); err != nil {
			return err
		}
	}
	return nil
}

func (l *lifecycleRunner) layers() error {
	e := l.e
	ctx, cancel := passCtx()
	defer cancel()
	lay := l.store.Layout()
	userBytes := float64(l.pay.size)
	stripes := (l.pay.size + lay.StripeCapacity - 1) / lay.StripeCapacity

	// One object, followed through every layer call the round makes.
	before := l.shim.snapshot()
	if !l.ingest(0) {
		return errors.New("layer replay: ingest failed")
	}
	wrote := l.shim.snapshot().sub(before)
	e.set("archive.stored_bytes_per_user_byte", float64(wrote.writtenBytes)/userBytes)
	e.set("device.write_block_ns", float64(wrote.writeNs)/float64(wrote.writes))

	readStripes := func(metricUs, metricBlocks string) (float64, error) {
		var ns, blocks []float64
		for st := 0; st < stripes; st++ {
			sp := e.tr.root("archive.ReadStripe")
			t0 := time.Now()
			_, stats, err := l.store.ReadStripe(sp.ctx(ctx), objectName(0), st)
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
			sp.end()
			if err != nil {
				return 0, err
			}
			blocks = append(blocks, float64(stats.BlocksRead))
		}
		e.set(metricUs, median(ns)/1e3)
		e.set(metricBlocks, mean(blocks))
		return median(ns), nil
	}
	before = l.shim.snapshot()
	healthyNs, err := readStripes("archive.read_stripe_healthy_us", "archive.blocks_read_per_stripe_healthy")
	if err != nil {
		return err
	}
	read := l.shim.snapshot().sub(before)
	e.set("device.read_block_ns", float64(read.readNs)/float64(read.reads))
	e.set("device.read_bytes_per_user_byte", float64(read.readBytes)/userBytes)
	e.set("device.reads_per_get", float64(read.reads))

	// Verify-only scrub of a healthy store: pure read-and-checksum bandwidth.
	var rep scrubReport
	d, err := e.replay(ctx, "archive.ScrubCtx", func(ctx context.Context) (err error) {
		rep, err = l.store.ScrubCtx(ctx, false)
		return err
	})
	if err != nil {
		return err
	}
	e.set("archive.scrub_verify_mbps", float64(rep.Cost.BytesRead)/1e6/d.Seconds())

	for _, dv := range l.failed {
		l.devs[dv].Fail()
	}
	degradedNs, err := readStripes("archive.read_stripe_degraded_us", "archive.blocks_read_per_stripe_degraded")
	if err != nil {
		return err
	}
	for _, dv := range l.failed {
		l.devs[dv].Replace()
	}
	d, err = e.replay(ctx, "archive.ScrubCtx", func(ctx context.Context) (err error) {
		rep, err = l.store.ScrubCtx(ctx, true)
		return err
	})
	if err != nil {
		return err
	}
	e.set("archive.scrub_repair_blocks_per_s", float64(rep.BlocksRepaired)/d.Seconds())

	// The P0 probe: default-parallelism GetStream under a 1 s deadline.
	hung := 0
	for i := 0; i < e.sz.HangProbes; i++ {
		pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
		v := &verifier{want: l.pay.object(0)}
		_, err := getStreamPar(pctx, l.store, objectName(0), v)
		pcancel()
		if errors.Is(err, context.DeadlineExceeded) {
			hung++
		} else if err != nil || !v.ok() {
			return fmt.Errorf("parallel GetStream probe: err=%v, payload ok=%v", err, v.ok())
		}
	}
	e.set("archive.getstream_par_hang_share", float64(hung)/float64(e.sz.HangProbes))

	// Allocation counts and tight loops run with the tracer off.
	e.tr.on.Store(false)
	n, b := allocsPer(100, func() { _, _, _ = l.store.ReadStripe(ctx, objectName(0), 0) })
	e.set("archive.get_allocs_per_stripe", n)
	e.set("archive.get_alloc_bytes_per_stripe", b)
	putNs, putAllocs := l.putStripe(ctx)
	e.set("archive.put_stripe_us", putNs/1e3)
	e.set("archive.put_allocs_per_stripe", putAllocs)
	if err := l.store.DeleteCtx(ctx, objectName(0)); err != nil {
		return err
	}
	dl, err := dataLayers(e, l.g, l.failed)
	if err != nil {
		return err
	}

	// What one stripe costs in each direction, split with the replays.
	type part struct {
		name string
		ns   float64
	}
	line := func(what string, totalNs float64, parts ...part) {
		e.line(what, totalNs/1e3, "us/stripe", 1, "archive call replayed per stripe")
		for _, p := range parts {
			e.line("  of which "+p.name, p.ns/1e3, "us/stripe", p.ns/totalNs, "")
		}
	}
	readNs := e.value("device.read_block_ns")
	line("restore: archive.ReadStripe", healthyNs,
		part{"device reads", e.value("archive.blocks_read_per_stripe_healthy") * readNs},
		part{"retrieval plan", dl.planHealthyNs}, part{"codec decode", dl.decodeHealthyNs})
	line("degraded restore: archive.ReadStripe", degradedNs,
		part{"device reads", e.value("archive.blocks_read_per_stripe_degraded") * readNs},
		part{"retrieval plan", dl.planDegradedNs}, part{"codec decode", dl.decode4LostNs})
	line("ingest: archive.PutStream", putNs,
		part{"device writes", float64(l.g.Total) * e.value("device.write_block_ns")}, part{"codec encode", dl.encodeNs})
	return nil
}

// putStripe measures the sequential ingest path per stripe: time and
// allocations of PutStream alone, on a one-stripe-multiple object.
func (l *lifecycleRunner) putStripe(ctx context.Context) (nsPerStripe, allocsPerStripe float64) {
	const n = 20
	lay := l.store.Layout()
	stripes := max(1, min(8, l.pay.size/lay.StripeCapacity))
	payload := l.pay.object(1)[:stripes*lay.StripeCapacity]
	var ns []float64
	total := uint64(0)
	for i := 0; i <= n; i++ {
		name := objectName(1000 + i)
		c0, _ := mallocs()
		t0 := time.Now()
		_, _ = putStreamSeq(ctx, l.store, name, bytes.NewReader(payload))
		d := time.Since(t0)
		c1, _ := mallocs()
		if i > 0 {
			total += c1 - c0
			ns = append(ns, float64(d.Nanoseconds()))
		}
		_ = l.store.DeleteCtx(ctx, name)
	}
	return median(ns) / float64(stripes), float64(total) / n / float64(stripes)
}
