package tornado

import (
	"context"

	"tornado/internal/fedstore"
)

// Federated storage runtime (§5.3 made live): N sites — each with its own
// Tornado graph, in-process Archives or SiteClients over HTTP — behind one
// Get/Put/Scrub/Pass facade with site-failover reads, quorum-gated writes,
// joint cross-site block exchange, and whole-site disaster repair.
type (
	// FederatedStore is the live N-site facade.
	FederatedStore = fedstore.Store
	// FederatedSite is one member of a FederatedStore: the site API an
	// Archive fills in process and a SiteClient over HTTP.
	FederatedSite = fedstore.Site
	// SiteStatus is the store's health view of one site.
	SiteStatus = fedstore.SiteStatus
	// StewardReport summarizes one FederatedStore.PassCtx maintenance sweep.
	StewardReport = fedstore.PassReport
	// FederatedConfig tunes the facade (write quorum, WAN topology).
	FederatedConfig = fedstore.Config
	// SiteScrub is one site's outcome from a federation-wide scrub.
	SiteScrub = fedstore.SiteScrub
	// SiteRepairReport is the outcome of one RepairSite disaster recovery.
	SiteRepairReport = fedstore.RepairReport
)

// Federated-store error sentinels.
var (
	// ErrSiteQuorum is a Put refused (and rolled back) because fewer sites
	// than the write quorum could durably accept it.
	ErrSiteQuorum = fedstore.ErrSiteQuorum
	// ErrNoSite means no federation site is currently reachable.
	ErrNoSite = fedstore.ErrNoSite
	// ErrSiteDown is the site-down class: a site that cannot be reached, or a
	// site-targeted operation against one.
	ErrSiteDown = fedstore.ErrSiteDown
)

// NewFederatedStore composes per-site archives (equal block size and data
// striping; graphs may — and for complementary fault tolerance should —
// differ) into the live federated facade.
func NewFederatedStore(sites []*Archive, cfg FederatedConfig) (*FederatedStore, error) {
	return fedstore.New(sites, cfg)
}

// OpenFederatedStore composes any sites — SiteClients for a federation over
// HTTP — under the same striping rule. A site unreachable now starts marked
// down and is admitted by the first PassCtx that reaches it; at least one
// must answer.
func OpenFederatedStore(ctx context.Context, sites []FederatedSite, cfg FederatedConfig) (*FederatedStore, error) {
	return fedstore.Open(ctx, sites, cfg)
}
