package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The result cache is content-addressed: one file per (graph, spec) pair,
// named <sha256(fingerprint + "\n" + canonical spec JSON)>.json and holding
// the marshaled Result. Writes go through atomic rename, so concurrent
// campaigns over the same cache directory at worst redo work — they never
// corrupt an entry.

// scanOrderVersion participates in the cache key so entries whose recorded
// failure sets were chosen differently miss instead of being served stale.
// "sl1" = each cardinality's lexicographically smallest failing sets. The
// tags of retired orders (none, "rd1", "rd2") simply miss.
const scanOrderVersion = "sl1"

// scanOrderVersionSampled tags sampled-certification entries (KindSampled).
// Sampled campaigns draw from their own RNG seed domain and record
// stratified tallies rather than scan results, so their cache population
// is versioned independently of the exhaustive scan order. "st2" = the
// stopping rule looks after every block; "st1" entries, which looked only
// after 1, 3, 7, … blocks and so may hold more blocks than the rule now
// draws, simply miss.
const scanOrderVersionSampled = "st2"

// scanOrderVersionProfile tags profile entries (KindProfile). Their points
// are defined by the sampling scheme: "pa3" = one shared set of random
// arrival orders in sim's fixed blocks, shard b shuffling orders
// [b·ShardSize, (b+1)·ShardSize) from stream b, every point of the window
// read off each order's threshold, and the worst-case search to
// sim.DefaultMaxK folded in as exact points. Entries stored under "pa2"
// (the same orders, no search folded in), "pa1" (the points with
// C(n,k) ≤ 100,000 enumerated instead), "pb1" (a fresh k-subset per trial
// per point) and "sl1" (those blocks cut into near-equal parts) hold other
// tallies and simply miss.
const scanOrderVersionProfile = "pa3"

// orderVersion returns the scan-order tag a normalized spec's cache
// entries are hashed under.
func orderVersion(normSpec Spec) string {
	switch normSpec.Kind {
	case KindSampled:
		return scanOrderVersionSampled
	case KindProfile:
		return scanOrderVersionProfile
	}
	return scanOrderVersion
}

func cacheKey(fingerprint string, normSpec Spec) string {
	return taggedCacheKey(fingerprint, orderVersion(normSpec), normSpec)
}

// taggedCacheKey is cacheKey with the scan-order tag given.
func taggedCacheKey(fingerprint, tag string, normSpec Spec) string {
	data, err := json.Marshal(normSpec)
	if err != nil {
		// Spec is a plain struct of marshalable fields; this cannot fail.
		panic(fmt.Sprintf("campaign: marshaling spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(fingerprint))
	h.Write([]byte{'\n'})
	h.Write([]byte(tag))
	h.Write([]byte{'\n'})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

func cachePath(cacheDir, key string) string {
	return filepath.Join(cacheDir, key+".json")
}

// loadCache returns the cached result for key, if present and readable. A
// corrupt entry is treated as a miss — the campaign reruns and overwrites
// it.
func loadCache(cacheDir, key string) (*Result, bool) {
	res, err := decodeResultFile(cachePath(cacheDir, key))
	if err != nil {
		return nil, false
	}
	return res, true
}

func storeCache(cacheDir, key string, res *Result) error {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	return writeJSONAtomic(cachePath(cacheDir, key), res)
}

func decodeResultFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("campaign: corrupt result %s: %w", path, err)
	}
	if res.Kind != KindWorstCase && res.Kind != KindProfile && res.Kind != KindSampled {
		return nil, fmt.Errorf("campaign: result %s has unknown kind %q", path, res.Kind)
	}
	return &res, nil
}
