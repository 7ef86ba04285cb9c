// Package fedstore is the live federated store runtime: N archive.Store
// sites — each with its own Tornado graph, placement, and (in tests) its
// own chaos injector — composed behind a single Get/Put/Scrub facade.
// Where internal/federation answers the analytical question ("would these
// joint erasures lose data?"), fedstore moves real bytes: reads fail over
// across sites, writes require a configurable site quorum and roll back
// below it, and when every site individually reports data loss the facade
// runs the paper's §5.3 block exchange for real — partial peeling at each
// site, reconstructed data blocks shipped between sites over the WAN
// topology, repeated to fixpoint — then re-exports recovered blocks to the
// broken sites through the archive's block interface, so every exchanged
// byte lands in the sites' repairbw meters under the federation cause.
//
// Site-scale failures come from an optional chaos.WAN: whole-site loss,
// inter-site partitions, per-link brownout latency, and site flapping, all
// seeded and deterministic. The facade is modeled as an external client
// with its own connectivity to every site — WAN links gate only
// site-to-site exchange; a lost or flapping site is unreachable to
// everyone.
package fedstore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/codec"
	"tornado/internal/obs"
	"tornado/internal/repairbw"
)

var (
	// ErrSiteQuorum is returned by Put when fewer sites than WriteQuorum
	// could durably accept the object; nothing remains written.
	ErrSiteQuorum = errors.New("fedstore: too few sites up for write quorum")
	// ErrNoSite means no site is currently reachable.
	ErrNoSite = errors.New("fedstore: no reachable site")
	// ErrSiteDown is returned by site-targeted operations (RepairSite)
	// when the target is unreachable.
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

// Store is the federated facade over N per-site archive stores. It is safe
// for concurrent use (each archive.Store is; the facade adds no shared
// mutable state beyond counters).
type Store struct {
	sites  []*archive.Store
	codecs []*codec.Codec
	cfg    Config
	layout archive.StripeLayout

	metrics    *obs.Registry
	cFailover  *obs.Counter // reads served only after at least one site failed
	cQuorumRef *obs.Counter // puts refused below the site quorum
	cExStripes *obs.Counter // stripes recovered by joint block exchange
	cExBlkRead *obs.Counter // blocks fetched from sites during exchange/repair
	cExBlkWrit *obs.Counter // blocks re-exported to sites
	cExByRead  *obs.Counter // framed bytes of the above
	cExByWrit  *obs.Counter
	cRepairs   *obs.Counter // RepairSite runs
}

// New builds the facade. All sites must agree on block size and data-node
// count (they hold replicas of the same logical blocks); their graphs may
// — and for complementary fault tolerance should — differ.
func New(sites []*archive.Store, cfg Config) (*Store, error) {
	if len(sites) < 2 {
		return nil, fmt.Errorf("fedstore: need at least 2 sites, got %d", len(sites))
	}
	if cfg.WriteQuorum <= 0 || cfg.WriteQuorum > len(sites) {
		cfg.WriteQuorum = len(sites)
	}
	if cfg.WAN != nil && cfg.WAN.Sites() != len(sites) {
		return nil, fmt.Errorf("fedstore: WAN has %d sites, store has %d", cfg.WAN.Sites(), len(sites))
	}
	layout := sites[0].Layout()
	f := &Store{sites: sites, cfg: cfg, layout: layout}
	for i, s := range sites {
		l := s.Layout()
		if l.BlockSize != layout.BlockSize || l.DataNodes != layout.DataNodes {
			return nil, fmt.Errorf("fedstore: site %d striping (%d×%d) differs from site 0 (%d×%d)",
				i, l.DataNodes, l.BlockSize, layout.DataNodes, layout.BlockSize)
		}
		c, err := codec.New(s.Graph(), l.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("fedstore: site %d codec: %w", i, err)
		}
		f.codecs = append(f.codecs, c)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f.metrics = reg
	f.cFailover = reg.Counter("fedstore.read_failover")
	f.cQuorumRef = reg.Counter("fedstore.put.quorum_refused")
	f.cExStripes = reg.Counter("fedstore.exchange.stripes")
	f.cExBlkRead = reg.Counter("fedstore.exchange.blocks_read")
	f.cExBlkWrit = reg.Counter("fedstore.exchange.blocks_written")
	f.cExByRead = reg.Counter("fedstore.exchange.bytes_read")
	f.cExByWrit = reg.Counter("fedstore.exchange.bytes_written")
	f.cRepairs = reg.Counter("fedstore.repair.site_repairs")
	return f, nil
}

// Sites returns the site count.
func (f *Store) Sites() int { return len(f.sites) }

// Site returns site i's archive store (tests and repair tooling reach
// through for site-local scrubs and meters).
func (f *Store) Site(i int) *archive.Store { return f.sites[i] }

// Layout returns the shared striping parameters.
func (f *Store) Layout() archive.StripeLayout { return f.layout }

// Metrics returns the registry carrying the fedstore.* counters.
func (f *Store) Metrics() *obs.Registry { return f.metrics }

// SiteUp reports whether site i is reachable under the WAN topology.
func (f *Store) SiteUp(i int) bool {
	return f.cfg.WAN == nil || f.cfg.WAN.SiteUp(i)
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
// must equal SiteFederationTotals byte for byte — the conservation
// invariant the disaster soak and TestRepairSiteAfterFullWipe enforce.
func (f *Store) ExchangeTotals() repairbw.CostReport {
	return repairbw.CostReport{
		BlocksRead:    int(f.cExBlkRead.Value()),
		BlocksWritten: int(f.cExBlkWrit.Value()),
		BytesRead:     f.cExByRead.Value(),
		BytesWritten:  f.cExByWrit.Value(),
	}
}

// SiteFederationTotals aggregates every site's repairbw federation-cause
// meter — the store-side view of the same exchange traffic.
func (f *Store) SiteFederationTotals() repairbw.CostReport {
	var total repairbw.CostReport
	for _, s := range f.sites {
		total.Add(s.RepairMeter().Totals(repairbw.Federation))
	}
	return total
}

// Put stores the object at every reachable site. At least WriteQuorum
// sites must durably accept it; otherwise every successful site write is
// rolled back and the Put fails with ErrSiteQuorum — graceful degradation
// refuses new writes rather than silently under-replicating them.
func (f *Store) Put(name string, data []byte) error {
	return f.PutCtx(context.Background(), name, data)
}

// PutCtx is Put with cancellation.
func (f *Store) PutCtx(ctx context.Context, name string, data []byte) error {
	f.step()
	up := f.upSites()
	if len(up) < f.cfg.WriteQuorum {
		f.cQuorumRef.Inc()
		return fmt.Errorf("%w: %d sites up, quorum %d", ErrSiteQuorum, len(up), f.cfg.WriteQuorum)
	}
	var stored []int
	var firstErr error
	rollback := func() {
		for _, i := range stored {
			_ = f.sites[i].DeleteCtx(ctx, name) // best effort; quorum error wins
		}
	}
	for _, i := range up {
		err := f.sites[i].PutCtx(ctx, name, data)
		switch {
		case err == nil:
			stored = append(stored, i)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			rollback()
			return err
		default:
			// A degraded or failing site counts against the quorum but does
			// not abort the put outright — the healthy sites may still
			// carry it.
			if firstErr == nil {
				firstErr = fmt.Errorf("site %d: %w", i, err)
			}
		}
	}
	if len(stored) < f.cfg.WriteQuorum {
		rollback()
		f.cQuorumRef.Inc()
		if firstErr != nil {
			return fmt.Errorf("%w: %d of %d site writes succeeded (quorum %d): %s",
				ErrSiteQuorum, len(stored), len(up), f.cfg.WriteQuorum, firstErr)
		}
		return fmt.Errorf("%w: %d of %d site writes succeeded (quorum %d)",
			ErrSiteQuorum, len(stored), len(up), f.cfg.WriteQuorum)
	}
	return nil
}

// Get reads the object from the first reachable site that can serve it,
// failing over across sites; when every reachable site individually
// reports data loss it falls back to joint cross-site exchange recovery.
// The result is always bit-exact or a definitive error.
func (f *Store) Get(name string) ([]byte, error) {
	return f.GetCtx(context.Background(), name)
}

// GetCtx is Get with cancellation.
func (f *Store) GetCtx(ctx context.Context, name string) ([]byte, error) {
	f.step()
	up := f.upSites()
	if len(up) == 0 {
		return nil, fmt.Errorf("%w: all %d sites down", ErrNoSite, len(f.sites))
	}
	exists := false
	failedOver := false
	var lastErr error
	for _, i := range up {
		if _, err := f.sites[i].Stat(name); err != nil {
			continue // site never saw the object (down during Put, or rolled back)
		}
		exists = true
		data, _, err := f.sites[i].GetCtx(ctx, name)
		if err == nil {
			if failedOver {
				f.cFailover.Inc()
			}
			return data, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		failedOver = true
		lastErr = err
	}
	if !exists {
		return nil, fmt.Errorf("%w: %q", archive.ErrNotFound, name)
	}
	// Every site that knows the object failed to serve it alone. The
	// federation's last line: joint block exchange across sites.
	data, err := f.exchangeGet(ctx, name)
	if err == nil {
		f.cFailover.Inc()
		return data, nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	return nil, fmt.Errorf("fedstore: %q lost at all reachable sites (last site error: %v): %w", name, lastErr, err)
}

// Delete removes the object from every reachable site.
func (f *Store) Delete(name string) error {
	return f.DeleteCtx(context.Background(), name)
}

// DeleteCtx is Delete with cancellation.
func (f *Store) DeleteCtx(ctx context.Context, name string) error {
	f.step()
	var firstErr error
	deleted := false
	for _, i := range f.upSites() {
		err := f.sites[i].DeleteCtx(ctx, name)
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

// Scrub runs a site-local scrub at every reachable site (repair=true
// rebuilds what each site can recover alone). Unreachable sites are
// reported skipped, not failed — they are scrubbed when they return.
func (f *Store) Scrub(repair bool) ([]SiteScrub, error) {
	return f.ScrubCtx(context.Background(), repair)
}

// ScrubCtx is Scrub with cancellation.
func (f *Store) ScrubCtx(ctx context.Context, repair bool) ([]SiteScrub, error) {
	f.step()
	out := make([]SiteScrub, len(f.sites))
	for i := range f.sites {
		out[i].Site = i
		if !f.SiteUp(i) {
			out[i].Skipped = true
			continue
		}
		rep, err := f.sites[i].ScrubCtx(ctx, repair)
		if err != nil {
			return out, fmt.Errorf("fedstore: scrub site %d: %w", i, err)
		}
		out[i].Report = rep
	}
	return out, nil
}
