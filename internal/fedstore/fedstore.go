// Package fedstore is the live federated store runtime — the only one: N
// sites, each with its own Tornado graph, composed behind a single
// Get/Put/Scrub/Pass facade. A site is anything that fills the Site
// interface: an archive.Store in process (with, in tests, its own chaos
// injector) or a steward.Client over HTTP; the facade runs the same bodies
// over both. Where internal/federation answers the analytical question
// ("would these joint erasures lose data?"), fedstore moves real bytes: reads
// fail over across sites, writes reach every site at once, require a
// configurable site quorum and roll back below it, and when every site
// individually reports data loss the facade runs the paper's §5.3 block
// exchange for real. Per group of sites linked over the WAN topology, it
// fetches every block the members hold and peels them once over the group's
// union graph — internal/federation's System, the model Table 7 is computed
// on — then writes recovered data blocks home to the broken sites through
// the sites' block interface, so every exchanged byte lands in the sites'
// repairbw meters under the federation cause.
//
// A site leaves the federation two ways. An optional chaos.WAN injects
// site-scale failures — whole-site loss, inter-site partitions, per-link
// brownout latency, site flapping, all seeded and deterministic — and a site
// whose calls fail with ErrSiteDown is marked down until a probe (PassCtx)
// reaches it again. The facade is modeled as an external client with its own
// connectivity to every site: WAN links gate only site-to-site exchange; a
// lost, flapping or marked-down site is unreachable to everyone.
package fedstore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/graph"
	"tornado/internal/obs"
	"tornado/internal/repairbw"
)

var (
	// ErrSiteQuorum is returned by Put when fewer sites than WriteQuorum
	// could durably accept the object; nothing remains written.
	ErrSiteQuorum = errors.New("fedstore: too few sites up for write quorum")
	// ErrNoSite means no site is currently reachable.
	ErrNoSite = errors.New("fedstore: no reachable site")
	// ErrSiteDown is the site-down error class: a Site returns it (wrapped)
	// when the site itself cannot be reached, as opposed to a definitive
	// answer about an object, and site-targeted operations (RepairSite)
	// return it when the target is unreachable.
	ErrSiteDown = errors.New("fedstore: site unreachable")
)

// Config tunes the facade.
type Config struct {
	// WriteQuorum is the minimum number of sites that must durably accept
	// a Put before it reports success; below it the Put is rolled back and
	// refused with ErrSiteQuorum. 0 means all sites (strictest).
	WriteQuorum int
	// WAN is the site-scale fault topology; nil means every site and link
	// is always healthy.
	WAN *chaos.WAN
	// Metrics receives the fedstore.* counters; nil gets a private registry.
	Metrics *obs.Registry
}

// Store is the federated facade over N sites. It is safe for concurrent use
// (each Site is; the facade's own mutable state is the counters and the
// per-site health below).
type Store struct {
	sites  []Site
	cfg    Config
	layout archive.StripeLayout // of the first site admitted; fixed after Open
	frame  int64                // framed bytes per block, the unit of every tally

	mu     sync.Mutex
	graphs []*graph.Graph // nil until the site is first admitted
	down   []error        // non-nil: the failure that marked the site down

	metrics    *obs.Registry
	cFailover  *obs.Counter // reads served only after at least one site failed
	cQuorumRef *obs.Counter // puts refused below the site quorum
	cExStripes *obs.Counter // stripes recovered by joint block exchange
	cExBlkRead *obs.Counter // blocks fetched from sites during exchange/repair
	cExBlkWrit *obs.Counter // blocks re-exported to sites
	cExByRead  *obs.Counter // framed bytes of the above
	cExByWrit  *obs.Counter
	cRepairs   *obs.Counter // RepairSite runs
	cDown      *obs.Counter // site-down detections, one per outage
	cReadmit   *obs.Counter // marked-down sites a probe reached again
	gHealthy   []*obs.Gauge // per site: 1 while not marked down
}

// New builds the facade over in-process sites. All sites must agree on block
// size and data-node count (they hold replicas of the same logical blocks);
// their graphs may — and for complementary fault tolerance should — differ.
func New(sites []*archive.Store, cfg Config) (*Store, error) {
	wrapped := make([]Site, len(sites))
	for i, s := range sites {
		wrapped[i] = local{s}
	}
	return Open(context.Background(), wrapped, cfg)
}

// Open builds the facade over any sites, under New's striping rule. A site
// that answers ErrSiteDown starts marked down — its striping check and graph
// wait for the probe that first reaches it — but at least one site must
// answer, and striping disagreement is always a hard error.
func Open(ctx context.Context, sites []Site, cfg Config) (*Store, error) {
	if len(sites) < 2 {
		return nil, fmt.Errorf("fedstore: need at least 2 sites, got %d", len(sites))
	}
	if cfg.WriteQuorum <= 0 || cfg.WriteQuorum > len(sites) {
		cfg.WriteQuorum = len(sites)
	}
	if cfg.WAN != nil && cfg.WAN.Sites() != len(sites) {
		return nil, fmt.Errorf("fedstore: WAN has %d sites, store has %d", cfg.WAN.Sites(), len(sites))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f := &Store{
		sites:      sites,
		cfg:        cfg,
		graphs:     make([]*graph.Graph, len(sites)),
		down:       make([]error, len(sites)),
		metrics:    reg,
		cFailover:  reg.Counter("fedstore.read_failover"),
		cQuorumRef: reg.Counter("fedstore.put.quorum_refused"),
		cExStripes: reg.Counter("fedstore.exchange.stripes"),
		cExBlkRead: reg.Counter("fedstore.exchange.blocks_read"),
		cExBlkWrit: reg.Counter("fedstore.exchange.blocks_written"),
		cExByRead:  reg.Counter("fedstore.exchange.bytes_read"),
		cExByWrit:  reg.Counter("fedstore.exchange.bytes_written"),
		cRepairs:   reg.Counter("fedstore.repair.site_repairs"),
		cDown:      reg.Counter("fedstore.site_down_detected"),
		cReadmit:   reg.Counter("fedstore.site_readmitted"),
	}
	answered := 0
	var lastErr error
	for i := range sites {
		g := reg.Gauge(fmt.Sprintf("fedstore.site.%d.healthy", i))
		g.Set(1)
		f.gHealthy = append(f.gHealthy, g)
		if lastErr = f.siteErr(i, f.admit(ctx, i)); lastErr == nil {
			answered++
		} else if !errors.Is(lastErr, ErrSiteDown) {
			return nil, lastErr
		}
	}
	if answered == 0 {
		return nil, fmt.Errorf("%w: none of the %d sites answered (%v)", ErrNoSite, len(sites), lastErr)
	}
	return f, nil
}

// admit fetches site i's layout, checks its striping against the
// federation's, and fetches the site's graph if it has none yet. It runs at
// construction and whenever a marked-down site is probed.
func (f *Store) admit(ctx context.Context, i int) error {
	lay, err := f.sites[i].Layout(ctx)
	if err != nil {
		return fmt.Errorf("fedstore: site %d layout: %w", i, err)
	}
	f.mu.Lock()
	if f.frame == 0 {
		f.layout, f.frame = lay, int64(lay.FrameSize())
	}
	ref, built := f.layout, f.graphs[i] != nil
	f.mu.Unlock()
	if lay.BlockSize <= 0 {
		return fmt.Errorf("fedstore: site %d block size %d must be positive", i, lay.BlockSize)
	}
	if lay.BlockSize != ref.BlockSize || lay.DataNodes != ref.DataNodes {
		return fmt.Errorf("fedstore: site %d striping (%d×%d) differs from the federation's (%d×%d)",
			i, lay.DataNodes, lay.BlockSize, ref.DataNodes, ref.BlockSize)
	}
	if built {
		return nil
	}
	g, err := f.sites[i].Graph(ctx)
	if err != nil {
		return fmt.Errorf("fedstore: site %d graph: %w", i, err)
	}
	f.mu.Lock()
	f.graphs[i] = g
	f.mu.Unlock()
	return nil
}

// graph returns site i's graph; every site that is up has been admitted.
func (f *Store) graph(i int) *graph.Graph {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.graphs[i]
}

// Sites returns the site count.
func (f *Store) Sites() int { return len(f.sites) }

// Layout returns the shared striping parameters.
func (f *Store) Layout() archive.StripeLayout { return f.layout }

// Metrics returns the registry carrying the fedstore.* counters and the
// per-site fedstore.site.<i>.healthy gauges.
func (f *Store) Metrics() *obs.Registry { return f.metrics }

// SiteUp reports whether site i is reachable: up under the WAN topology and
// not marked down by a failed call.
func (f *Store) SiteUp(i int) bool {
	return (f.cfg.WAN == nil || f.cfg.WAN.SiteUp(i)) && f.downErr(i) == nil
}

// downErr returns the failure that marked site i down, nil while it is not.
func (f *Store) downErr(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[i]
}

// siteErr passes a call's error at site i through, marking the site down —
// once per outage — when the error says the site itself is unreachable.
// Marked sites are skipped by reads, writes and repairs until probe.
func (f *Store) siteErr(i int, err error) error {
	if !errors.Is(err, ErrSiteDown) {
		return err
	}
	f.mu.Lock()
	wasUp := f.down[i] == nil
	f.down[i] = err
	f.mu.Unlock()
	if wasUp {
		f.cDown.Inc()
		f.gHealthy[i].Set(0)
	}
	return err
}

// probe readmits marked-down site i if it answers a cheap layout fetch (and,
// for a site first seen down, yields its graph).
func (f *Store) probe(ctx context.Context, i int) error {
	if err := f.admit(ctx, i); err != nil {
		return f.siteErr(i, err)
	}
	f.mu.Lock()
	f.down[i] = nil
	f.mu.Unlock()
	f.cReadmit.Inc()
	f.gHealthy[i].Set(1)
	return nil
}

// SiteStatus is the facade's health view of one site.
type SiteStatus struct {
	Site int
	Up   bool // SiteUp: reachable under the WAN and not marked down
	// LastError is the failure that marked the site down ("" otherwise).
	LastError string
}

// Health returns the current per-site status.
func (f *Store) Health() []SiteStatus {
	out := make([]SiteStatus, len(f.sites))
	for i := range out {
		out[i] = SiteStatus{Site: i, Up: f.SiteUp(i)}
		if err := f.downErr(i); err != nil {
			out[i].LastError = err.Error()
		}
	}
	return out
}

// linkUp reports whether sites a and b can exchange blocks.
func (f *Store) linkUp(a, b int) bool {
	return f.cfg.WAN == nil || f.cfg.WAN.LinkUp(a, b)
}

// linkStall sleeps out what moving n bytes over the a-b link costs: any
// brownout latency, and the link's share of a byte-rate cap.
func (f *Store) linkStall(ctx context.Context, a, b int, n int64) error {
	if f.cfg.WAN == nil {
		return nil
	}
	d := f.cfg.WAN.Transfer(a, b, n)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// step advances the WAN schedule by one logical facade operation.
func (f *Store) step() {
	if f.cfg.WAN != nil {
		f.cfg.WAN.Step()
	}
}

// upSites returns the reachable site indices in ascending order.
func (f *Store) upSites() []int {
	var up []int
	for i := range f.sites {
		if f.SiteUp(i) {
			up = append(up, i)
		}
	}
	return up
}

// ExchangeTotals is the facade's own tally of cross-site exchange traffic
// (framed bytes, counted per successful block transfer). On a clean run it
// must equal the sum of the sites' federation-cause repair meters byte for
// byte — the conservation invariant the disaster soak and
// TestRepairSiteAfterFullWipe enforce.
func (f *Store) ExchangeTotals() repairbw.CostReport {
	return repairbw.CostReport{
		BlocksRead:    int(f.cExBlkRead.Value()),
		BlocksWritten: int(f.cExBlkWrit.Value()),
		BytesRead:     f.cExByRead.Value(),
		BytesWritten:  f.cExByWrit.Value(),
	}
}

// PutCtx stores the object at every reachable site, writing them all at
// once: one goroutine per site, each running that site's own Put (in
// process, archive.PutCtx at width 1). Every verdict is taken after the join,
// in ascending site order. At least WriteQuorum sites must durably accept the
// object; otherwise every successful site write is rolled back and the Put
// fails with ErrSiteQuorum — graceful degradation refuses new writes rather
// than silently under-replicating them. Only down or degraded sites count
// against the quorum: a site that answers archive.ErrExists has given a
// definitive verdict on the name, and the Put is rolled back at every site it
// reached and refused with it. Two Puts racing on one name may therefore
// both be refused; at most one succeeds. The rollback runs to completion even
// when ctx is what ended the Put.
//
// Until the rollback ends, a refused Put's bytes sit at every site that took
// them — for a repeat Put of an existing name, every up site that lacked it,
// such as one waiting for RepairSite — and a concurrent Get may read them. A
// rollback Delete that fails leaves that copy behind, consistent within its
// site but unlike the other sites' copies; the returned error names each
// such site, so the caller can delete the name there.
func (f *Store) PutCtx(ctx context.Context, name string, data []byte) error {
	f.step()
	up := f.upSites()
	if len(up) < f.cfg.WriteQuorum {
		f.cQuorumRef.Inc()
		return fmt.Errorf("%w: %d sites up, quorum %d", ErrSiteQuorum, len(up), f.cfg.WriteQuorum)
	}
	errs := fanOut(up, func(i int) error { return f.sites[i].Put(ctx, name, data) })
	var stored []int
	var verdict, firstErr error
	for k, i := range up {
		err := f.siteErr(i, errs[k])
		switch {
		case err == nil:
			stored = append(stored, i)
		case verdict != nil:
		case isCtxErr(err):
			verdict = err
		case errors.Is(err, archive.ErrExists):
			verdict = fmt.Errorf("fedstore: put at site %d: %w", i, err)
		case firstErr == nil:
			// A down or degraded site counts against the quorum but does not
			// abort the put outright — the healthy sites may still carry it,
			// and the next RepairSite brings the object to this one.
			firstErr = fmt.Errorf("site %d: %w", i, err)
		}
	}
	if verdict == nil && len(stored) >= f.cfg.WriteQuorum {
		return nil
	}
	rctx := context.WithoutCancel(ctx)
	errs = fanOut(stored, func(i int) error { return f.sites[i].Delete(rctx, name) })
	var left []string
	for k, i := range stored {
		if err := f.siteErr(i, errs[k]); err != nil && !errors.Is(err, archive.ErrNotFound) {
			left = append(left, fmt.Sprintf("site %d (%v)", i, err))
		}
	}
	err := verdict
	if err == nil {
		f.cQuorumRef.Inc()
		err = fmt.Errorf("%w: %d of %d site writes succeeded (quorum %d)",
			ErrSiteQuorum, len(stored), len(up), f.cfg.WriteQuorum)
		if firstErr != nil {
			err = fmt.Errorf("%w: %s", err, firstErr)
		}
	}
	if len(left) > 0 {
		return fmt.Errorf("%w; rollback failed, refused copy left at %s", err, strings.Join(left, ", "))
	}
	return err
}

// fanOut calls fn for every site in sites, each on its own goroutine, and
// returns their errors in the order of sites once every call has returned. A
// site sees one call from it, so its own calls keep their order.
func fanOut(sites []int, fn func(i int) error) []error {
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	for k, i := range sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = fn(i)
		}()
	}
	wg.Wait()
	return errs
}

// GetCtx reads the object from the first reachable site, in ascending order,
// that can serve it, failing over across sites; when every site that knows
// the object reports data loss it falls back to joint cross-site exchange
// recovery. The result is always bit-exact or a definitive error: not-found
// only when every site asked answered not-found, ErrSiteDown when a site
// went down under the read and none served.
func (f *Store) GetCtx(ctx context.Context, name string) ([]byte, error) {
	f.step()
	up := f.upSites()
	if len(up) == 0 {
		return nil, fmt.Errorf("%w: all %d sites down", ErrNoSite, len(f.sites))
	}
	failedOver := false
	var lastErr, downErr error
	for _, i := range up {
		data, err := f.sites[i].Get(ctx, name)
		if err == nil {
			if failedOver {
				f.cFailover.Inc()
			}
			return data, nil
		}
		switch {
		case isCtxErr(err):
			return nil, err
		case errors.Is(err, archive.ErrNotFound):
			// The site never saw the object (down during Put, or rolled back).
		case errors.Is(f.siteErr(i, err), ErrSiteDown):
			failedOver, downErr = true, err
		default:
			failedOver, lastErr = true, err
		}
	}
	if lastErr == nil {
		if downErr != nil {
			// A site that went down may still hold the object.
			return nil, fmt.Errorf("fedstore: reading %q: %w", name, downErr)
		}
		return nil, fmt.Errorf("%w: %q", archive.ErrNotFound, name)
	}
	// Every site that knows the object failed to serve it alone. The
	// federation's last line: joint block exchange across sites.
	data, err := f.exchangeGet(ctx, name)
	if err == nil {
		f.cFailover.Inc()
		return data, nil
	}
	if isCtxErr(err) {
		return nil, err
	}
	return nil, fmt.Errorf("fedstore: %q lost at all reachable sites (last site error: %v): %w", name, lastErr, err)
}

// DeleteCtx removes the object from every reachable site.
func (f *Store) DeleteCtx(ctx context.Context, name string) error {
	f.step()
	var firstErr error
	deleted := false
	for _, i := range f.upSites() {
		err := f.siteErr(i, f.sites[i].Delete(ctx, name))
		switch {
		case err == nil:
			deleted = true
		case errors.Is(err, archive.ErrNotFound):
		case firstErr == nil:
			firstErr = fmt.Errorf("site %d: %w", i, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if !deleted {
		return fmt.Errorf("%w: %q", archive.ErrNotFound, name)
	}
	return nil
}

// SiteScrub is one site's scrub outcome from a federation-wide Scrub.
type SiteScrub struct {
	Site    int
	Skipped bool // site unreachable; no scrub ran
	Report  archive.ScrubReport
}

// ScrubCtx runs a site-local scrub at every reachable site (repair=true
// rebuilds what each site can recover alone). Unreachable sites — and one
// that goes down under its scrub — are reported skipped, not failed: they
// are scrubbed when they return.
func (f *Store) ScrubCtx(ctx context.Context, repair bool) ([]SiteScrub, error) {
	f.step()
	out := make([]SiteScrub, len(f.sites))
	for i := range f.sites {
		out[i].Site = i
		if !f.SiteUp(i) {
			out[i].Skipped = true
			continue
		}
		rep, err := f.sites[i].Scrub(ctx, repair)
		if errors.Is(f.siteErr(i, err), ErrSiteDown) {
			out[i].Skipped = true
			continue
		}
		if err != nil {
			return out, fmt.Errorf("fedstore: scrub site %d: %w", i, err)
		}
		out[i].Report = rep
	}
	return out, nil
}
