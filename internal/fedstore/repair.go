package fedstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"tornado/internal/archive"
	"tornado/internal/codec"
	"tornado/internal/federation"
	"tornado/internal/graph"
	"tornado/internal/repairbw"
)

// exchangeGet recovers a whole object by joint cross-site block exchange —
// the read path of last resort, entered only after every reachable site
// individually failed to serve the object. Which sites take part is settled
// once, for every stripe; one that goes down under the exchange drops out
// through siteErr.
func (f *Store) exchangeGet(ctx context.Context, name string) ([]byte, error) {
	obj, groups := f.exchangeGroups(ctx, name)
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: %q", archive.ErrNotFound, name)
	}
	out := make([]byte, 0, obj.Size)
	for st := 0; st < obj.Stripes; st++ {
		data, err := f.recoverStripe(ctx, name, st, groups)
		if err != nil {
			return nil, err
		}
		for _, b := range data {
			out = append(out, b[:min(len(b), obj.Size-len(out))]...)
		}
	}
	return out, nil
}

// exchangeGroups returns the reachable sites that know the object, split
// into link-connected groups: a block crosses up links hop by hop, but only
// through sites that hold its stripe. Groups are in order of their first
// site, each in ascending order; obj is the first holder's record.
func (f *Store) exchangeGroups(ctx context.Context, name string) (obj archive.Object, groups [][]int) {
	var live []int
	for _, i := range f.upSites() {
		if o, err := f.sites[i].Stat(ctx, name); f.siteErr(i, err) == nil {
			if live == nil {
				obj = o
			}
			live = append(live, i)
		}
	}
	placed := make([]bool, len(f.sites))
	for _, first := range live {
		if placed[first] {
			continue
		}
		placed[first] = true
		group := []int{first}
		for q := 0; q < len(group); q++ {
			for _, j := range live {
				if !placed[j] && f.linkUp(group[q], j) {
					placed[j] = true
					group = append(group, j)
				}
			}
		}
		slices.Sort(group)
		groups = append(groups, group)
	}
	return obj, groups
}

// recoverStripe is federation.JointDecode on the bytes of one stripe. For
// each group in turn, it fetches every block the members still hold, places
// each at its node's ID in the group's union graph (federation.System; a
// lone site's union is its own graph) and runs one codec repair there: the
// §5.3 exchange to fixpoint as a single peel. A lone site is tried too: its
// failed Get of the whole object may have lost other stripes than this one.
// The first group that recovers every data block writes each member's
// missing data blocks home — the cross-site repair write-back, stalled on an
// up link into the member from the first other member that has one — and
// the stripe's data blocks are returned.
// Every byte moved goes through the sites' ReadBlock/WriteBlock, so the
// sites bill it to the federation cause; the facade keeps its own tally in
// the fedstore.exchange.* counters for the conservation check.
func (f *Store) recoverStripe(ctx context.Context, name string, stripe int, groups [][]int) ([][]byte, error) {
	data := f.layout.DataNodes
	for _, group := range groups {
		graphs := make([]*graph.Graph, len(group))
		for k, i := range group {
			graphs[k] = f.graph(i)
		}
		union, unionID := graphs[0], func(_, node int) int { return node }
		if len(group) > 1 {
			sys, err := federation.NewSystem(graphs...)
			if err != nil {
				return nil, err
			}
			union, unionID = sys.Union(), sys.UnionID
		}
		blocks := make([][]byte, union.Total)
		held := make([][]bool, len(group)) // held[k][v]: member k had data block v on disk
		for k, i := range group {
			held[k] = make([]bool, data)
			for node := 0; node < graphs[k].Total && f.SiteUp(i); node++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				b, err := f.sites[i].ReadBlock(ctx, name, stripe, node, nil)
				if err != nil {
					if isCtxErr(err) {
						return nil, err
					}
					f.siteErr(i, err) // a site gone down ends the loop; it peels with what it gave
					continue          // missing or corrupt: a hole for the peel to fill
				}
				blocks[unionID(k, node)] = b
				if node < data {
					held[k][node] = true
				}
				f.cExBlkRead.Inc()
				f.cExByRead.Add(f.frame)
			}
		}
		c, err := codec.New(union, f.layout.BlockSize)
		if err != nil {
			return nil, err
		}
		if c.Repair(blocks) != nil {
			continue
		}
		f.cExStripes.Inc()
		// Check blocks are site-specific: each member's own repair pass
		// re-encodes them once its data is whole.
		for k, j := range group {
			from := slices.IndexFunc(group, func(a int) bool { return a != j && f.SiteUp(a) && f.linkUp(a, j) })
			for v := 0; v < data && from >= 0 && f.SiteUp(j); v++ {
				if held[k][v] {
					continue
				}
				if err := f.linkStall(ctx, group[from], j, f.frame); err != nil {
					return nil, err
				}
				if err := f.sites[j].WriteBlock(ctx, name, stripe, v, blocks[v]); err != nil {
					if isCtxErr(err) {
						return nil, err
					}
					f.siteErr(j, err) // a site gone down ends the loop
					continue          // site degraded mid-repair; a later RepairSite retries
				}
				f.cExBlkWrit.Inc()
				f.cExByWrit.Add(f.frame)
			}
		}
		return blocks[:data], nil
	}
	return nil, fmt.Errorf("%w: %q stripe %d lost at every group of linked reachable sites, even with block exchange",
		archive.ErrDataLoss, name, stripe)
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
	// MissingAfter and Unrecoverable are the last repairing pass's residue;
	// both must be zero after a successful disaster recovery.
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
// of the target's link group alone — a target cut off from every holder
// exchanges nothing — and, only if there were any, one more pass for their
// checks. The last pass's report is the residue: nothing is read back.
//
// A device that refuses a rebuilt block (a dead replacement drive) does not
// stop the repair: the block shows up in MissingAfter and a later run
// retries. A donor that goes down under the repair is dropped from it. A
// node quarantined at the target stays so until the site's next scrub.
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

	// The stripes some data block of which no donor had: the only ones the
	// joint exchange can complete. The pass's workers call donor at once.
	type stripeRef struct {
		name   string
		stripe int
	}
	var mu sync.Mutex
	unserved := map[stripeRef]bool{}
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
		mu.Lock()
		unserved[stripeRef{name, stripe}] = true
		mu.Unlock()
		return nil, nil // the stripe goes to the joint exchange below
	}
	pass, err := ts.RepairFrom(ctx, donor)
	f.cExBlkWrit.Add(int64(pass.BlocksImported))
	f.cExByWrit.Add(int64(pass.BlocksImported) * f.frame)
	rep.LocalRepairs, rep.DirectImports = pass.BlocksLocal, pass.BlocksImported
	if err != nil {
		return rep, fmt.Errorf("fedstore: repair pass at site %d: %w", target, err)
	}

	var obj string
	var own [][]int // the target's link group among obj's holders, if it has a donor
	for _, h := range pass.Stripes {
		// A stripe the donors completed but dead drives left short gains
		// nothing from an exchange: its blocks still cannot go home.
		if h.Recoverable || !unserved[stripeRef{h.Object, h.Stripe}] {
			continue
		}
		if h.Object != obj {
			_, groups := f.exchangeGroups(ctx, h.Object)
			obj, own = h.Object, slices.DeleteFunc(groups, func(g []int) bool { return len(g) < 2 || !slices.Contains(g, target) })
		}
		if _, err := f.recoverStripe(ctx, h.Object, h.Stripe, own); err != nil {
			if isCtxErr(err) {
				return rep, err
			}
			continue // truly lost; the residue counts it
		}
		rep.ExchangedStripes++
	}
	if rep.ExchangedStripes > 0 {
		// The exchange wrote data blocks home; the checks over them are the
		// site's own to re-encode.
		if pass, err = ts.RepairFrom(ctx, nil); err != nil {
			return rep, fmt.Errorf("fedstore: rebuild pass at site %d: %w", target, err)
		}
	}

	// A set difference: a second look's Repaired lists first-look rewrites.
	for _, h := range pass.Stripes {
		for _, node := range h.Missing {
			if !slices.Contains(h.Repaired, node) {
				rep.MissingAfter++
			}
		}
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
