package federation

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"tornado/internal/graph"
)

// SearchOptions tunes the detected-first-failure search.
type SearchOptions struct {
	// Restarts is the number of randomized greedy attempts per critical
	// set. Default 12.
	Restarts int
	// MaxCuts bounds the greedy blocking-set growth per attempt (cuts are
	// spread across all partner sites). Default 40 per partner.
	MaxCuts int
	// Seed drives the randomized choices.
	Seed uint64
}

func (o *SearchOptions) setDefaults(partners int) {
	if o.Restarts <= 0 {
		o.Restarts = 12
	}
	if o.MaxCuts <= 0 {
		o.MaxCuts = 40 * partners
	}
}

// Detection is a witnessed federation failure: erasing SiteErasures[i] at
// site i loses data despite block exchange.
type Detection struct {
	TotalErased  int
	SiteErasures [][]int
}

// DetectFirstFailureCtx searches for the smallest federation-wide failure it
// can construct — the paper's "first failure detected" (Table 7),
// generalized from the paper's two sites to any N. Because the joint
// device space is far too large for brute force, the search is seeded
// with the component graphs' known critical sets (critical[i] lists site
// i's sets, typically from the exhaustive worst-case search): for each
// critical set at an anchor site (losing data D), it grows a joint
// blocking erasure across ALL partner sites that pins every jointly-lost
// block — with N sites, every partner must independently be unable to
// recover D, or exchange resurrects it everywhere — then minimizes the
// whole witness greedily. The result is an upper bound witness, exactly
// as in the paper. Cancellation is checked between critical-set searches,
// so a canceled federation search returns within one critical-set attempt.
func (s *System) DetectFirstFailureCtx(ctx context.Context, critical [][]CriticalSet, opts SearchOptions) (Detection, error) {
	if len(critical) != len(s.sites) {
		return Detection{}, fmt.Errorf("federation: critical sets for %d sites, system has %d", len(critical), len(s.sites))
	}
	opts.setDefaults(len(s.sites) - 1)
	rng := rand.New(rand.NewPCG(opts.Seed, 0x7E4))

	best := Detection{TotalErased: -1}
	for a := range s.sites {
		for _, cs := range critical[a] {
			if err := ctx.Err(); err != nil {
				return Detection{}, err
			}
			det, ok := s.blockAtPartners(a, cs, opts, rng)
			if !ok {
				continue
			}
			if best.TotalErased < 0 || det.TotalErased < best.TotalErased {
				best = det
			}
		}
	}
	if best.TotalErased < 0 {
		return Detection{}, fmt.Errorf("federation: no joint failure detected from %d critical sets", totalSets(critical))
	}
	return best, nil
}

func totalSets(critical [][]CriticalSet) int {
	n := 0
	for _, cs := range critical {
		n += len(cs)
	}
	return n
}

// blockAtPartners fixes the anchor site's erasure to the critical set and
// searches for small erasures at every other site that jointly keep the
// federation from recovering. A third site left untouched would supply
// every lost block through exchange, so all partners must be blocked at
// once — this is what the pairwise (a,b) search missed for N >= 3.
func (s *System) blockAtPartners(a int, cs CriticalSet, opts SearchOptions, rng *rand.Rand) (Detection, bool) {
	n := len(s.sites)
	var partners []int
	for p := range s.sites {
		if p != a {
			partners = append(partners, p)
		}
	}

	var bestX [][]int
	bestSize := -1
	for restart := 0; restart < opts.Restarts; restart++ {
		// Start every partner from the lost blocks themselves: any
		// surviving replica of a lost block anywhere is exchanged
		// directly, so they must be gone at every site.
		x := make([][]int, n)
		for _, p := range partners {
			x[p] = slices.Clone(cs.Lost)
		}
		x[a] = cs.Erased
		ok := false
		for cut := 0; cut < opts.MaxCuts; cut++ {
			jointOK, _ := s.JointDecode(x)
			if !jointOK {
				ok = true
				break
			}
			// The federation recovered: cut a recovery path at a random
			// partner by erasing an uncut ancestor check of a random
			// still-critical block. Walking the full ancestor cone
			// matters — a cut level-1 check is recomputed from level 2,
			// which is recomputed from level 3, so blocking must
			// eventually reach the cascade's top.
			p := partners[rng.IntN(len(partners))]
			d := cs.Lost[rng.IntN(len(cs.Lost))]
			r := uncutAncestor(s.sites[p], d, x[p], rng)
			if r < 0 {
				continue // this block's cone is saturated; try another
			}
			x[p] = append(x[p], r)
		}
		if !ok {
			continue
		}
		x = s.minimizeBlocking(a, cs, x)
		size := 0
		for _, p := range partners {
			size += len(x[p])
		}
		if bestSize < 0 || size < bestSize {
			bestX = x
			bestSize = size
		}
	}
	if bestSize < 0 {
		return Detection{}, false
	}

	erasures := make([][]int, n)
	total := len(cs.Erased)
	erasures[a] = slices.Clone(cs.Erased)
	for _, p := range partners {
		erasures[p] = bestX[p]
		total += len(bestX[p])
	}
	return Detection{
		TotalErased:  total,
		SiteErasures: erasures,
	}, true
}

// uncutAncestor walks a random upward path from node v through the
// cascade's parent relation and returns the first check not already in x,
// or -1 when the sampled path is fully cut.
func uncutAncestor(g *graph.Graph, v int, x []int, rng *rand.Rand) int {
	cur := v
	for depth := 0; depth < 16; depth++ {
		parents := g.Parents(cur)
		if len(parents) == 0 {
			return -1
		}
		p := int(parents[rng.IntN(len(parents))])
		if !slices.Contains(x, p) {
			return p
		}
		cur = p
	}
	return -1
}

// minimizeBlocking greedily drops elements of every partner-site erasure
// while the joint failure persists. The anchor's erasure (x[a] ==
// cs.Erased) is left intact — it is the witness being blocked.
func (s *System) minimizeBlocking(a int, cs CriticalSet, x [][]int) [][]int {
	erased := make([][]int, len(x))
	copy(erased, x)
	erased[a] = cs.Erased
	for p := range x {
		if p == a {
			continue
		}
		for i := 0; i < len(erased[p]); {
			full := erased[p]
			trial := append(slices.Clone(full[:i]), full[i+1:]...)
			erased[p] = trial
			if ok, _ := s.JointDecode(erased); !ok {
				continue // still fails without element i; keep the drop
			}
			erased[p] = full
			i++
		}
	}
	return erased
}
