package tornado

import (
	"context"

	"tornado/internal/chaos"
	"tornado/internal/federation"
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
	// DisasterSoakConfig tunes one seeded site-loss disaster campaign.
	DisasterSoakConfig = fedstore.SoakConfig
	// DisasterSoakReport is a campaign's outcome; Check() enforces the
	// recovery and byte-conservation invariants.
	DisasterSoakReport = fedstore.SoakReport
	// WAN is the site-scale chaos topology: whole-site loss, inter-site
	// partitions, per-link brownout latency, seeded site flapping.
	WAN = chaos.WAN
	// WANConfig tunes the WAN injector.
	WANConfig = chaos.WANConfig
	// FederationSetScore ranks one graph combination from
	// SearchComplementarySets by its detected joint first failure.
	FederationSetScore = federation.SetScore
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

// NewWAN builds a seeded site-scale fault topology for a FederatedConfig.
func NewWAN(cfg WANConfig) *WAN { return chaos.NewWAN(cfg) }

// RunDisasterSoak executes one seeded site-loss disaster campaign —
// build, load, whole-site destruction under survivor chaos, quiesce,
// cross-site repair — and returns its report; call Report.Check for the
// recovery-guarantee verdict.
func RunDisasterSoak(cfg DisasterSoakConfig) (DisasterSoakReport, error) {
	return fedstore.SoakCtx(context.Background(), cfg)
}

// RunDisasterSoakCtx is RunDisasterSoak with cancellation between
// operations; a run that completes is identical to an uncancelled one.
func RunDisasterSoakCtx(ctx context.Context, cfg DisasterSoakConfig) (DisasterSoakReport, error) {
	return fedstore.SoakCtx(ctx, cfg)
}

// DefaultSurvivorFaults is the node-level fault schedule disaster
// campaigns apply at surviving sites by default.
func DefaultSurvivorFaults() ChaosConfig { return fedstore.DefaultSurvivorFaults() }

// SearchComplementarySets runs the detected-first-failure search over
// every n-combination of candidate graphs and ranks the combinations by
// joint first failure, best first — the campaign that finds complementary
// graph sets worth federating (critical[i] lists graphs[i]'s known
// critical sets).
func SearchComplementarySets(ctx context.Context, graphs []*Graph, critical [][]CriticalSet, n int, opts FederationSearchOptions) ([]FederationSetScore, error) {
	return federation.SearchComplementarySets(ctx, graphs, critical, n, opts)
}
