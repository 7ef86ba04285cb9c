package main

import (
	"context"
	"fmt"
	"time"
)

// siteWipeRunner is site_wipe: a three-site federation loses every device of
// one site and RepairSite rebuilds it from the other two.
type siteWipeRunner struct {
	e      *env
	fed    *FedStore
	sites  []*Store
	devs   []Devices
	shims  []*backendShim // traced runs only
	pay    *payloads
	victim int
	last   repairReport // of the latest RepairSite
}

var siteGraphs = []string{"tornado96-1", "tornado96-2", "tornado96-3"}

func buildSiteWipe(e *env) (runner, error) {
	s := &siteWipeRunner{e: e, victim: int(e.seed % uint64(len(siteGraphs)))}
	for _, name := range siteGraphs {
		g, err := loadPrecompiled(name)
		if err != nil {
			return nil, err
		}
		devs := newDevices(g.Total)
		var st *Store
		if e.trace {
			var shim *backendShim
			st, shim, err = newShimStore(g, devs, e.tr)
			// One RepairSite moves ~200k blocks: count and time them, but
			// keep them out of the span log.
			shim.countOnly = true
			s.shims = append(s.shims, shim)
		} else {
			st, err = newStore(g, devs)
		}
		if err != nil {
			return nil, err
		}
		s.sites, s.devs = append(s.sites, st), append(s.devs, devs)
	}
	var err error
	if s.fed, err = newFedStore(s.sites); err != nil {
		return nil, err
	}
	s.pay = newPayloads(e.seed, e.sz.WipeBytes)
	var putNs []float64
	for k := 0; k < e.sz.WipeObjects; k++ {
		ctx, cancel := opCtx(context.Background())
		t0 := time.Now()
		err := s.fed.PutCtx(ctx, objectName(k), s.pay.object(k))
		putNs = append(putNs, float64(time.Since(t0).Nanoseconds()))
		cancel()
		if err != nil {
			return nil, fmt.Errorf("preload %s: %w", objectName(k), err)
		}
	}
	if e.trace {
		e.set("fedstore.put_us", median(putNs)/1e3)
	}
	return s, nil
}

// wipe destroys and replaces every device of a site: blank media, metadata
// (the object shells) intact.
func (s *siteWipeRunner) wipe(site int) {
	for _, d := range s.devs[site] {
		d.Fail()
		d.Replace()
	}
}

// verifySite reads every object back from one site alone, byte for byte.
func (s *siteWipeRunner) verifySite(site int) {
	s.e.timed(func() {
		for k := 0; k < s.e.sz.WipeObjects; k++ {
			ctx, cancel := opCtx(context.Background())
			v := &verifier{want: s.pay.object(k)}
			sp := s.e.tr.root("archive.GetStream")
			_, err := getStreamSeq(sp.ctx(ctx), s.sites[site], objectName(k), v)
			sp.end()
			cancel()
			s.e.op(err == nil && v.ok())
		}
	})
}

// repair runs RepairSite on a freshly wiped site, checks the residue and
// returns the repair time.
func (s *siteWipeRunner) repair(site int) (d time.Duration, err error) {
	ctx, cancel := passCtx()
	defer cancel()
	var rep repairReport
	d = s.e.timed(func() {
		sp := s.e.tr.root("fedstore.RepairSiteCtx")
		rep, err = s.fed.RepairSiteCtx(sp.ctx(ctx), site)
		sp.end()
	})
	s.e.op(err == nil)
	if err != nil {
		return d, nil // counted as a failed operation
	}
	if rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		return d, invalidf("RepairSite left %d missing blocks, %d unrecoverable stripes", rep.MissingAfter, rep.Unrecoverable)
	}
	lay := s.sites[site].Layout()
	stripesPerObject := (s.pay.size + lay.StripeCapacity - 1) / lay.StripeCapacity
	lost := s.e.sz.WipeObjects * stripesPerObject * lay.NodesPerStripe * s.sites[site].FrameSize()
	// Cross-site bytes (read at the donors + written at the victim) over the
	// framed bytes the wiped site held: an exact count.
	s.e.add("repair_bytes_per_lost_byte", float64(rep.Exchange.Bytes())/float64(lost))
	s.last = rep
	return d, nil
}

func (s *siteWipeRunner) round() error {
	s.wipe(s.victim)
	d, err := s.repair(s.victim)
	if err != nil {
		return err
	}
	s.e.add("repair_s", d.Seconds())
	s.verifySite(s.victim)
	return nil
}

func (s *siteWipeRunner) reset() error { return nil }

func (s *siteWipeRunner) layers() error {
	e := s.e
	e.set("fedstore.shells_synced", float64(s.last.ShellsSynced))
	e.set("fedstore.local_repairs", float64(s.last.LocalRepairs))
	e.set("fedstore.direct_imports", float64(s.last.DirectImports))
	e.set("fedstore.exchanged_stripes", float64(s.last.ExchangedStripes))
	e.set("fedstore.exchange_bytes_read", float64(s.last.Exchange.BytesRead))
	e.set("fedstore.exchange_bytes_written", float64(s.last.Exchange.BytesWritten))

	// Reads while a site is dark. GetCtx tries sites in order, so the probe
	// wipes site 0 whichever site the rounds wiped: every read fails over.
	s.wipe(0)
	var ns []float64
	for k := 0; k < e.sz.WipeObjects; k++ {
		ctx, cancel := opCtx(context.Background())
		sp := e.tr.root("fedstore.GetCtx")
		t0 := time.Now()
		data, err := s.fed.GetCtx(sp.ctx(ctx), objectName(k))
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		sp.end()
		cancel()
		v := &verifier{want: s.pay.object(k)}
		_, _ = v.Write(data)
		e.op(err == nil && v.ok())
	}
	e.set("fedstore.get_failover_us", median(ns)/1e3)

	// One more repair with the device counters read around it: how much of
	// RepairSite is block I/O at the three sites.
	var before []shimCounts
	for _, sh := range s.shims {
		before = append(before, sh.snapshot())
	}
	d, err := s.repair(0)
	if err != nil {
		return err
	}
	s.verifySite(0)
	var io shimCounts
	for i, sh := range s.shims {
		c := sh.snapshot().sub(before[i])
		io.reads, io.writes = io.reads+c.reads, io.writes+c.writes
		io.readNs, io.writeNs = io.readNs+c.readNs, io.writeNs+c.writeNs
	}
	e.set("device.read_block_ns", float64(io.readNs)/float64(io.reads))
	e.set("device.write_block_ns", float64(io.writeNs)/float64(io.writes))
	total := float64(d.Nanoseconds())
	e.line("repair: fedstore.RepairSiteCtx", total/1e6, "ms", 1, "site 0 wiped and repaired once more, device counters read around it")
	e.line("  of which device reads", float64(io.readNs)/1e6, "ms", float64(io.readNs)/total, fmt.Sprintf("%d blocks at all sites (donor reads, scrub passes)", io.reads))
	e.line("  of which device writes", float64(io.writeNs)/1e6, "ms", float64(io.writeNs)/total, fmt.Sprintf("%d blocks (imports, rebuilt checks)", io.writes))
	return nil
}
