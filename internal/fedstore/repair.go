package fedstore

import (
	"context"
	"errors"
	"fmt"

	"tornado/internal/archive"
	"tornado/internal/repairbw"
)

// exchangeGet recovers a whole object by joint cross-site block exchange —
// the read path of last resort, entered only after every reachable site
// individually failed to serve the object.
func (f *Store) exchangeGet(ctx context.Context, name string) ([]byte, error) {
	var obj archive.Object
	found := false
	for _, i := range f.upSites() {
		if o, err := f.sites[i].Stat(ctx, name); f.siteErr(i, err) == nil {
			obj = o
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", archive.ErrNotFound, name)
	}
	capacity := f.layout.DataNodes * f.layout.BlockSize
	out := make([]byte, 0, obj.Size)
	for st := 0; st < obj.Stripes; st++ {
		payloadLen := obj.Size - st*capacity
		if payloadLen > capacity {
			payloadLen = capacity
		}
		if payloadLen < 0 {
			payloadLen = 0
		}
		winner, blocks, err := f.recoverStripe(ctx, name, st)
		if err != nil {
			return nil, err
		}
		chunk, err := f.codec(winner).Decode(blocks, payloadLen)
		if err != nil {
			return nil, fmt.Errorf("fedstore: decode %q stripe %d: %w", name, st, err)
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// recoverStripe is the live version of federation.JointDecode: fetch what
// every reachable site still holds of one stripe, let each site's codec
// peel as far as it can, ship recovered data blocks between link-connected
// sites, and repeat to fixpoint. On success the reconstructed data blocks
// are re-exported to every participating site that was missing them (the
// cross-site repair write-back), and it returns the index of the site
// whose codec completed plus that site's block array (all data blocks
// filled). Every byte moved goes through the sites' ReadBlock/WriteBlock, so
// the sites bill it to the federation cause; the facade keeps its own
// tally in the fedstore.exchange.* counters for the conservation check.
func (f *Store) recoverStripe(ctx context.Context, name string, stripe int) (int, [][]byte, error) {
	// Participants: reachable sites that know the object.
	var live []int
	for _, i := range f.upSites() {
		if _, err := f.sites[i].Stat(ctx, name); f.siteErr(i, err) == nil {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return 0, nil, fmt.Errorf("%w: %q", ErrNoSite, name)
	}

	perSite := make(map[int][][]byte, len(live))
	fetched := make(map[int][]bool, len(live))
	for _, i := range live {
		total := f.codec(i).Graph().Total
		blocks := make([][]byte, total)
		have := make([]bool, total)
		for node := 0; node < total; node++ {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
			b, err := f.sites[i].ReadBlock(ctx, name, stripe, node, nil)
			if err != nil {
				if isCtxErr(err) {
					return 0, nil, err
				}
				if errors.Is(f.siteErr(i, err), ErrSiteDown) {
					break // the site went down mid-fetch; peel with what it gave
				}
				continue // missing or corrupt: a hole for the peel to fill
			}
			blocks[node] = b
			have[node] = true
			f.cExBlkRead.Inc()
			f.cExByRead.Add(f.frame)
		}
		perSite[i] = blocks
		fetched[i] = have
	}

	data := f.layout.DataNodes
	winner := -1
	for winner < 0 {
		// Let every site peel as far as it can (Repair reconstructs blocks
		// in place even when it ultimately fails).
		for _, i := range live {
			if err := f.codec(i).Repair(perSite[i]); err == nil {
				winner = i
				break
			}
		}
		if winner >= 0 {
			break
		}
		// Exchange: ship any data block one site holds to every
		// link-connected site missing it.
		progress := false
		for v := 0; v < data; v++ {
			for _, b := range live {
				if perSite[b][v] != nil {
					continue
				}
				for _, a := range live {
					if a == b || perSite[a][v] == nil {
						continue
					}
					if !f.linkUp(a, b) {
						continue
					}
					if err := f.linkStall(ctx, a, b, f.frame); err != nil {
						return 0, nil, err
					}
					perSite[b][v] = perSite[a][v]
					progress = true
					break
				}
			}
		}
		if !progress {
			return 0, nil, fmt.Errorf("%w: %q stripe %d lost at all %d reachable sites even with block exchange",
				archive.ErrDataLoss, name, stripe, len(live))
		}
	}
	f.cExStripes.Inc()

	// Cross-site repair write-back: re-export reconstructed data blocks to
	// every participating site that was missing them on disk. Check blocks
	// are site-specific and are rebuilt by each site's own repair scrub
	// once its data is whole.
	for _, j := range live {
		if j != winner && !f.linkUp(winner, j) {
			continue
		}
		for v := 0; v < data; v++ {
			if fetched[j][v] || perSite[winner][v] == nil {
				continue
			}
			if err := f.linkStall(ctx, winner, j, f.frame); err != nil {
				return 0, nil, err
			}
			if err := f.sites[j].WriteBlock(ctx, name, stripe, v, perSite[winner][v]); err != nil {
				if isCtxErr(err) {
					return 0, nil, err
				}
				if errors.Is(f.siteErr(j, err), ErrSiteDown) {
					break
				}
				continue // site degraded mid-repair; a later RepairSite retries
			}
			f.cExBlkWrit.Inc()
			f.cExByWrit.Add(f.frame)
		}
	}
	return winner, perSite[winner], nil
}

// RepairReport is the outcome of one RepairSite run.
type RepairReport struct {
	Site int
	// ShellsSynced counts object shells copied from donor metadata — the
	// objects the site missed entirely (down during Put, or device-wiped
	// with the steward database surviving).
	ShellsSynced int
	// LocalRepairs counts blocks the site rebuilt by peeling its own
	// surviving blocks, before any cross-site traffic.
	LocalRepairs int
	// DirectImports counts data blocks copied straight from a donor
	// site's intact replica.
	DirectImports int
	// ExchangedStripes counts stripes that needed full joint exchange
	// because no single donor held the missing blocks.
	ExchangedStripes int
	// Exchange is the facade-tallied cross-site traffic of this repair,
	// filled in on an error return too.
	Exchange repairbw.CostReport
	// MissingAfter and Unrecoverable are the site's post-repair scrub
	// residue; both must be zero after a successful disaster recovery.
	MissingAfter  int
	Unrecoverable int
}

// RepairSiteCtx restores a site after a disaster, visiting each of its
// stripes once. Object shells the site never saw are copied from its donors
// (the reachable sites with a working link to it). Then one repairing pass
// (Site.RepairFrom) runs with the federation as donor: per stripe the site
// verifies what it holds and peels, only the data blocks it cannot rebuild
// are read from the first donor that has them, and the site re-encodes its
// own checks from them — a lost byte costs one byte across the WAN, never a
// check block, all of it billed to the federation repair cause. Stripes no
// single donor could complete go through the joint exchange (recoverStripe)
// and, only if there were any, one more pass for their checks. A verify-only
// scrub, independent of all that, measures the residue.
//
// A device that refuses a rebuilt block (a dead replacement drive) does not
// stop the repair: the block shows up in MissingAfter and a later run
// retries. A donor that goes down under the repair is dropped from it.
func (f *Store) RepairSiteCtx(ctx context.Context, target int) (rep RepairReport, err error) {
	rep = RepairReport{Site: target}
	if target < 0 || target >= len(f.sites) {
		return rep, fmt.Errorf("fedstore: site %d out of range [0,%d)", target, len(f.sites))
	}
	if !f.SiteUp(target) {
		return rep, fmt.Errorf("%w: site %d", ErrSiteDown, target)
	}
	f.cRepairs.Inc()
	before := f.ExchangeTotals()
	defer func() {
		rep.Exchange = costDelta(f.ExchangeTotals(), before)
		f.siteErr(target, err) // every error below that wraps ErrSiteDown is the target's
	}()
	ts := f.sites[target]

	// Donors: reachable sites with a working link to the target.
	var donors []int
	for _, i := range f.upSites() {
		if i != target && f.linkUp(i, target) {
			donors = append(donors, i)
		}
	}

	// List is name-sorted at every site, so the shell sync is deterministic.
	held, err := ts.List(ctx)
	if err != nil {
		return rep, fmt.Errorf("fedstore: list at site %d: %w", target, err)
	}
	known := make(map[string]bool, len(held))
	for _, obj := range held {
		known[obj.Name] = true
	}
	for _, d := range donors {
		objs, err := f.sites[d].List(ctx)
		if isCtxErr(err) {
			return rep, err
		}
		if f.siteErr(d, err) != nil {
			continue
		}
		for _, obj := range objs {
			if known[obj.Name] {
				continue
			}
			if err := ts.PutShell(ctx, obj.Name, obj.Size, obj.Stripes); err != nil {
				return rep, fmt.Errorf("fedstore: shell %q at site %d: %w", obj.Name, target, err)
			}
			known[obj.Name] = true
			rep.ShellsSynced++
		}
	}

	donor := func(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error) {
		for _, d := range donors {
			if f.downErr(d) != nil {
				continue
			}
			b, err := f.sites[d].ReadBlock(ctx, name, stripe, node, dst)
			if err != nil {
				if isCtxErr(err) {
					return nil, err
				}
				f.siteErr(d, err)
				continue
			}
			f.cExBlkRead.Inc()
			f.cExByRead.Add(f.frame)
			if err := f.linkStall(ctx, d, target, f.frame); err != nil {
				return nil, err
			}
			return b, nil
		}
		return nil, nil // the stripe goes to the joint exchange below
	}
	pass, err := ts.RepairFrom(ctx, donor)
	f.cExBlkWrit.Add(int64(pass.BlocksImported))
	f.cExByWrit.Add(int64(pass.BlocksImported) * f.frame)
	rep.LocalRepairs, rep.DirectImports = pass.BlocksLocal, pass.BlocksImported
	if err != nil {
		return rep, fmt.Errorf("fedstore: repair pass at site %d: %w", target, err)
	}

	for _, h := range pass.Stripes {
		if h.Recoverable {
			continue
		}
		if _, _, err := f.recoverStripe(ctx, h.Object, h.Stripe); err != nil {
			if isCtxErr(err) {
				return rep, err
			}
			continue // truly lost; the final scrub counts it
		}
		rep.ExchangedStripes++
	}
	if rep.ExchangedStripes > 0 {
		// The exchange wrote data blocks home; the checks over them are the
		// site's own to re-encode.
		if _, err := ts.RepairFrom(ctx, nil); err != nil {
			return rep, fmt.Errorf("fedstore: rebuild pass at site %d: %w", target, err)
		}
	}

	final, err := ts.Scrub(ctx, false)
	if err != nil {
		return rep, fmt.Errorf("fedstore: final scrub at site %d: %w", target, err)
	}
	for _, h := range final.Stripes {
		rep.MissingAfter += len(h.Missing)
		if !h.Recoverable {
			rep.Unrecoverable++
		}
	}
	return rep, nil
}

// PassReport is the outcome of one maintenance pass.
type PassReport struct {
	// Sites is the health of every site after the pass, filled in on an
	// error return too.
	Sites []SiteStatus
	// Readmitted lists the marked-down sites the pass's probe reached again;
	// Skipped the sites that are down as the pass ends.
	Readmitted, Skipped []int
	// Repairs holds one RepairSite report per site repaired, in site order.
	Repairs []RepairReport
}

// PassCtx is one federation maintenance sweep: every marked-down site is
// probed and readmitted if it answers, then every reachable site gets a
// RepairSite — shells it missed, blocks it lost, from whichever donors are
// up — in index order. A site that is or goes down is recorded and skipped,
// never fatal to the pass; it fails only when no site is reachable or ctx
// ends, and otherwise returns the repairs' own errors joined.
func (f *Store) PassCtx(ctx context.Context) (rep PassReport, err error) {
	defer func() {
		rep.Sites = f.Health()
		for _, st := range rep.Sites {
			if !st.Up {
				rep.Skipped = append(rep.Skipped, st.Site)
			}
		}
	}()
	for i := range f.sites {
		if f.downErr(i) != nil && f.probe(ctx, i) == nil {
			rep.Readmitted = append(rep.Readmitted, i)
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if len(f.upSites()) == 0 {
		return rep, fmt.Errorf("%w: all %d sites down", ErrNoSite, len(f.sites))
	}
	var errs []error
	for i := range f.sites {
		if !f.SiteUp(i) {
			continue
		}
		r, err := f.RepairSiteCtx(ctx, i)
		switch {
		case err == nil:
			rep.Repairs = append(rep.Repairs, r)
		case isCtxErr(err):
			return rep, err
		case !errors.Is(err, ErrSiteDown):
			errs = append(errs, err)
		}
	}
	return rep, errors.Join(errs...)
}

// isCtxErr reports whether err is a cancellation or a missed deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// costDelta subtracts two CostReport snapshots.
func costDelta(after, before repairbw.CostReport) repairbw.CostReport {
	return repairbw.CostReport{
		BlocksRead:    after.BlocksRead - before.BlocksRead,
		BlocksWritten: after.BlocksWritten - before.BlocksWritten,
		BytesRead:     after.BytesRead - before.BytesRead,
		BytesWritten:  after.BytesWritten - before.BytesWritten,
	}
}
