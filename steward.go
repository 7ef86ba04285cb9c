package tornado

import (
	"tornado/internal/obs"
	"tornado/internal/steward"
)

// Federated stewarding types (paper §5.3 over real HTTP).
type (
	// SiteServer serves one archive site's object/block/health API, plus
	// /metrics (JSON request metrics) and /healthz (liveness).
	SiteServer = steward.Server
	// SiteClient is the typed client for one site: context-first methods,
	// per-request deadlines, and bounded retry with jittered backoff. It is
	// a FederatedSite: OpenFederatedStore over SiteClients is the HTTP
	// federation.
	SiteClient = steward.Client
	// SiteClientOptions tunes a SiteClient's timeout/retry/metrics.
	SiteClientOptions = steward.ClientOptions
	// Metrics is a named collection of counters, gauges, and latency
	// histograms (see internal/obs); a SiteServer serves it as JSON at
	// /metrics.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time export of a Metrics registry.
	MetricsSnapshot = obs.Snapshot
)

// ErrSiteUnavailable marks transport failures and persistent 5xx answers:
// the site is down or unreachable, as opposed to a definitive reply about
// an object. It is ErrSiteDown: a FederatedStore marks the site down on it.
var ErrSiteUnavailable = steward.ErrUnavailable

// NewSiteServer exposes an archive over HTTP (implements http.Handler).
func NewSiteServer(store *Archive) *SiteServer { return steward.NewServer(store) }

// NewSiteClientWithOptions connects to a site with explicit timeout,
// retry, and metrics configuration.
func NewSiteClientWithOptions(baseURL string, opts SiteClientOptions) *SiteClient {
	return steward.NewClientWithOptions(baseURL, opts)
}
