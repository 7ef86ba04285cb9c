package campaign

import "tornado/internal/graph"

// CacheKey returns the cache key a campaign over (g, spec) is stored
// under: a hex sha256 of the graph fingerprint and the normalized spec.
// Anything that changes the computed result — a rewired edge, a different
// trial budget or seed — changes the key; Workers and other Options do
// not participate.
func CacheKey(g *graph.Graph, spec Spec) string {
	return cacheKey(g.Fingerprint(), spec.normalize(g.Total))
}
