package fedstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"tornado/internal/archive"
	"tornado/internal/codec"
	"tornado/internal/decode"
	"tornado/internal/federation"
	"tornado/internal/graph"
	"tornado/internal/repairbw"
)

// exchangeGet recovers a whole object by joint cross-site block exchange —
// the read path of last resort, entered only after every reachable site
// individually failed to serve the object. Which sites take part is settled
// once, for every stripe; a site that goes down under the exchange drops out
// through siteErr.
func (f *Store) exchangeGet(ctx context.Context, name string) ([]byte, error) {
	obj, groups := f.exchangeGroups(ctx, name)
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: %q", archive.ErrNotFound, name)
	}
	out := make([]byte, 0, obj.Size)
	for st := 0; st < obj.Stripes; st++ {
		data, err := f.recoverStripe(ctx, name, st, groups, -1, nil)
		if err != nil {
			return nil, err
		}
		for _, b := range data {
			out = append(out, b[:min(len(b), obj.Size-len(out))]...)
		}
	}
	return out, nil
}

// unionGroup is one link-connected group of sites holding an object; union
// builds its union graph's codec on first use (federation.System; a lone
// site's union is its own graph).
type unionGroup struct {
	sites []int
	union func() (unionCodec, error)
}

type unionCodec struct {
	*codec.Codec
	id func(k, node int) int // member k's node → its union node
}

// exchangeGroups returns the reachable sites that know the object, split
// into link-connected groups: a block crosses up links hop by hop, but only
// through sites that hold its stripe. Groups are in order of their first
// site, each in ascending order; obj is the first holder's record.
func (f *Store) exchangeGroups(ctx context.Context, name string) (obj archive.Object, groups []unionGroup) {
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
		groups = append(groups, unionGroup{group, sync.OnceValues(func() (u unionCodec, err error) {
			graphs := make([]*graph.Graph, len(group))
			for k, i := range group {
				graphs[k] = f.graph(i)
			}
			union := graphs[0]
			u.id = func(_, node int) int { return node }
			if len(group) > 1 {
				sys, err := federation.NewSystem(graphs...)
				if err != nil {
					return u, err
				}
				u.id, union = sys.UnionID, sys.Union()
			}
			u.Codec, err = codec.New(union, f.layout.BlockSize)
			return u, err
		})})
	}
	return obj, groups
}

// recoverStripe is federation.JointDecode on the bytes of one stripe. For
// each group in turn, it fetches every block the members still hold, places
// each at its node's ID in the group's union graph and runs one codec repair
// there: the §5.3 exchange to fixpoint as a single peel. A lone site is tried
// too: its failed Get of the whole object may have lost other stripes than
// this one. The first group that recovers every data block writes each
// member's missing data blocks home — the cross-site repair write-back, each
// block stalled on an up link into the member from the member
// writeBackSource picks — and the stripe's data blocks are returned. Site
// home (-1: none) is a repairing pass's target: a block the pass holds in
// have is not read again, and a missing data block crosses the link but is
// left to the pass to write.
// Every byte moved goes through the sites' ReadBlock/WriteBlock, so the
// sites bill it to the federation cause; the facade keeps its own tally in
// the fedstore.exchange.* counters for the conservation check.
func (f *Store) recoverStripe(ctx context.Context, name string, stripe int, groups []unionGroup, home int, have [][]byte) ([][]byte, error) {
	data := f.layout.DataNodes
	for _, g := range groups {
		u, err := g.union()
		if err != nil {
			return nil, err
		}
		blocks := make([][]byte, u.Graph().Total)
		held := make([][]bool, len(g.sites)) // held[k][v]: member k had data block v
		for k, i := range g.sites {
			held[k] = make([]bool, data)
			for node, total := 0, f.graph(i).Total; node < total && f.SiteUp(i); node++ {
				var b []byte
				if i == home {
					b = have[node]
				}
				if len(b) == 0 {
					if b, err = f.fetch(ctx, i, name, stripe, node, nil); err != nil {
						return nil, err
					}
				}
				if b == nil {
					continue // missing or corrupt: a hole for the peel to fill
				}
				blocks[u.id(k, node)] = b
				if node < data {
					held[k][node] = true
				}
			}
		}
		if u.Repair(blocks) != nil {
			continue
		}
		f.cExStripes.Inc()
		// Check blocks are site-specific: each member's own repair pass
		// re-encodes them once its data is whole.
		for k, j := range g.sites {
			for v := 0; v < data && f.SiteUp(j); v++ {
				if held[k][v] {
					continue
				}
				from := f.writeBackSource(g.sites, held, j, v, home)
				if from < 0 {
					break // no member is up and linked to j
				}
				if err := f.linkStall(ctx, from, j, f.frame); err != nil {
					return nil, err
				}
				if j == home {
					continue // the pass writes it
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

// writeBackSource returns the member of sites whose link into member j the
// write-back of data block v is charged on, or -1 when no member is up and
// linked to j: a member that held v before the exchange, the repair target
// home last among them (what it holds, single donors handed it moments
// before); failing that the first linked member other than home, and home
// only when no other is linked.
func (f *Store) writeBackSource(sites []int, held [][]bool, j, v, home int) int {
	from, best := -1, 4
	for k, a := range sites {
		if a == j || !f.SiteUp(a) || !f.linkUp(a, j) {
			continue
		}
		rank := 0 // a non-target holder first, then the target holding it, then any non-target member
		if !held[k][v] {
			rank += 2
		}
		if a == home {
			rank++
		}
		if rank < best {
			from, best = a, rank
		}
	}
	return from
}

// fetch reads one block from site i for an exchange or a repair and tallies
// it. It returns nil when the site gives none — missing or corrupt, or the
// site went down, which marks it so — and an error only when ctx ended.
func (f *Store) fetch(ctx context.Context, i int, name string, stripe, node int, dst []byte) ([]byte, error) {
	b, err := f.sites[i].ReadBlock(ctx, name, stripe, node, dst)
	if isCtxErr(err) {
		return nil, err
	}
	if f.siteErr(i, err) != nil {
		return nil, nil
	}
	f.cExBlkRead.Inc()
	f.cExByRead.Add(f.frame)
	return b, nil
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
	// DirectImports counts data blocks copied straight from a donor site's
	// intact replica and written home.
	DirectImports int
	// ExchangedStripes counts stripes that needed full joint exchange
	// because no single donor held the missing blocks.
	ExchangedStripes int
	// Exchange is the facade-tallied cross-site traffic of this repair,
	// filled in on an error return too.
	Exchange repairbw.CostReport
	// MissingAfter and Unrecoverable are the repairing pass's residue; both
	// must be zero after a successful disaster recovery.
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
// check block, all of it billed to the federation repair cause. When a data
// block the site could store has no single donor and what the stripe still
// lacks does not decode, the joint exchange (recoverStripe) of the target's
// link group alone supplies the rest in the same visit — a target cut off
// from every holder exchanges nothing. The pass's report is the residue:
// nothing is read back.
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

	// Per object, settled on its first exchange: the target's link group
	// among the holders, and per exchanged stripe the data nodes the exchange
	// supplied. The pass's workers call donor for several stripes at once.
	var mu sync.Mutex
	own := map[string][]unionGroup{}
	supplied := map[string]map[int][]int{}
	csr := decode.NewCSR(f.graph(target))
	donor := func(ctx context.Context, name string, stripe int, lacking []int, blocks [][]byte) error {
		var still []int // the lacking nodes no single donor serves
		short := false  // one of them a data block the site can store
		for _, node := range lacking {
			for _, d := range donors {
				if len(blocks[node]) > 0 || node >= f.layout.DataNodes || f.downErr(d) != nil {
					continue
				}
				b, err := f.fetch(ctx, d, name, stripe, node, blocks[node])
				if err == nil && b != nil {
					blocks[node], err = b, f.linkStall(ctx, d, target, f.frame)
				}
				if err != nil {
					return err
				}
			}
			if len(blocks[node]) == 0 {
				still = append(still, node)
				short = short || blocks[node] != nil
			}
		}
		if !short || decode.NewDecoder(csr).Recoverable(still) {
			return nil // the site's own peel finishes the stripe, or could store nothing more
		}
		mu.Lock()
		groups, ok := own[name]
		if !ok {
			_, groups = f.exchangeGroups(ctx, name)
			groups = slices.DeleteFunc(groups, func(g unionGroup) bool { return len(g.sites) < 2 || !slices.Contains(g.sites, target) })
			own[name], supplied[name] = groups, map[int][]int{}
		}
		mu.Unlock()
		got, err := f.recoverStripe(ctx, name, stripe, groups, target, blocks)
		if isCtxErr(err) {
			return err
		}
		if err != nil {
			return nil // lost at every linked site, or no site is linked; the residue counts it
		}
		mu.Lock()
		defer mu.Unlock()
		for _, node := range still {
			if node < f.layout.DataNodes {
				blocks[node] = got[node]
				supplied[name][stripe] = append(supplied[name][stripe], node)
			}
		}
		return nil
	}
	pass, err := ts.RepairFrom(ctx, donor)
	f.cExBlkWrit.Add(int64(pass.BlocksImported))
	f.cExByWrit.Add(int64(pass.BlocksImported) * f.frame)
	rep.LocalRepairs, rep.DirectImports = pass.BlocksLocal, pass.BlocksImported
	for _, stripes := range supplied {
		rep.ExchangedStripes += len(stripes)
	}
	if err != nil {
		return rep, fmt.Errorf("fedstore: repair pass at site %d: %w", target, err)
	}
	// Missing less Repaired is what the pass left missing. An exchanged block
	// that is not left missing went home, and is no direct import.
	for _, h := range pass.Stripes {
		rep.DirectImports -= len(supplied[h.Object][h.Stripe])
		for _, node := range h.Missing {
			if !slices.Contains(h.Repaired, node) {
				rep.MissingAfter++
				if slices.Contains(supplied[h.Object][h.Stripe], node) {
					rep.DirectImports++
				}
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
