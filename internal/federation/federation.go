// Package federation models the paper's multi-graph distributed archival
// storage (§5.3, Table 7): every data block is replicated at two (or more)
// sites, each site protects its replica with its own Tornado Code graph,
// and sites exchange reconstructed blocks. Because each graph has different
// critical left-node sets, complementary graphs survive failure patterns
// that defeat either graph alone — "restoring just one critical data node
// allows the data graph to be reconstructed even when both graphs cannot
// independently perform the reconstruction".
package federation

import (
	"fmt"
	"sync"

	"tornado/internal/decode"
	"tornado/internal/graph"
)

// System is a federated store: Sites[i] is the erasure graph protecting the
// replica at site i. All graphs must agree on the data node count (they
// protect the same logical blocks); device numbering is per-site.
//
// Block exchange to fixpoint is one peel of the union graph: the shared
// data nodes under every site's check levels, site i's check IDs shifted by
// offset[i]. A union data node is erased iff every site lost its replica.
type System struct {
	sites  []*graph.Graph
	union  *graph.Graph
	offset []int     // union ID of site i's check v is v + offset[i]
	pool   sync.Pool // of *jointScratch: JointDecode is safe for concurrent use
}

// jointScratch is one JointDecode call's state.
type jointScratch struct {
	d      *decode.Decoder // over the union graph
	lostAt []int           // lostAt[v] = i: data block v is lost at sites 0..i-1; all 0 between calls
	erased []int           // the union erasure
}

// NewSystem builds a federation over the given site graphs.
func NewSystem(sites ...*graph.Graph) (*System, error) {
	if len(sites) < 2 {
		return nil, fmt.Errorf("federation: need at least 2 sites, got %d", len(sites))
	}
	data := sites[0].Data
	for i, g := range sites {
		if g.Data != data {
			return nil, fmt.Errorf("federation: site %d has %d data nodes, site 0 has %d", i, g.Data, data)
		}
	}
	s := &System{sites: sites, offset: make([]int, len(sites))}
	for i := 1; i < len(sites); i++ {
		s.offset[i] = s.offset[i-1] + sites[i-1].Total - data
	}
	b := graph.NewBuilder(data)
	for i, g := range sites {
		for _, lv := range g.Levels {
			// A left range that straddles data and checks widens over the
			// other sites' checks in between; no edge names those.
			first, last := s.UnionID(i, lv.LeftFirst), s.UnionID(i, lv.LeftFirst+lv.LeftCount-1)
			b.AddLevel(first, last-first+1, lv.RightCount)
		}
	}
	s.union = b.Graph()
	for i, g := range sites {
		for r := data; r < g.Total; r++ {
			for _, l := range g.LeftNeighbors(r) {
				s.union.AddEdge(s.UnionID(i, r), s.UnionID(i, int(l)))
			}
		}
	}
	s.pool.New = func() any {
		return &jointScratch{d: decode.New(s.union), lostAt: make([]int, data)}
	}
	return s, nil
}

// Union returns the union graph JointDecode peels. Its nodes are numbered by
// UnionID; it must not be changed.
func (s *System) Union() *graph.Graph { return s.union }

// UnionID maps site i's node v into the union graph: data nodes are shared,
// site i's checks follow those of the sites before it.
func (s *System) UnionID(i, v int) int {
	if v < s.Data() {
		return v
	}
	return v + s.offset[i]
}

// Sites returns the number of sites.
func (s *System) Sites() int { return len(s.sites) }

// Data returns the shared logical data block count.
func (s *System) Data() int { return s.sites[0].Data }

// TotalDevices returns the total device count across sites.
func (s *System) TotalDevices() int {
	n := 0
	for _, g := range s.sites {
		n += g.Total
	}
	return n
}

// JointDecode evaluates a federation-wide failure: erased[i] lists the
// offline devices at site i (graph-local node IDs). Sites peel and exchange
// every data block any of them holds, to fixpoint (paper §5.3) — one peel
// of the union graph. It returns whether all data survived and the lost
// blocks. Safe for concurrent use.
func (s *System) JointDecode(erased [][]int) (ok bool, lost []int) {
	if len(erased) != len(s.sites) {
		panic(fmt.Sprintf("federation: %d erasure sets for %d sites", len(erased), len(s.sites)))
	}
	sc := s.pool.Get().(*jointScratch) // not returned on a panic: lostAt would be dirty
	data := s.Data()
	sc.erased = sc.erased[:0]
	for i, set := range erased {
		for _, v := range set {
			if v < 0 || v >= s.sites[i].Total {
				panic(fmt.Sprintf("federation: site %d has no device %d", i, v))
			}
			if v >= data {
				sc.erased = append(sc.erased, v+s.offset[i])
			} else if sc.lostAt[v] == i {
				sc.lostAt[v]++ // a repeat within the site finds i+1 and is skipped
			}
		}
	}
	// Erased in the union = lost everywhere, which only site 0's losses can be.
	for _, v := range erased[0] {
		if v < data {
			if sc.lostAt[v] == len(erased) {
				sc.erased = append(sc.erased, v)
			}
			sc.lostAt[v] = 0
		}
	}
	sc.d.Erase(sc.erased...)
	sc.d.Peel()
	if ok = sc.d.AllDataPresent(); !ok {
		lost = sc.d.MissingData(nil)
	}
	sc.d.Reset()
	s.pool.Put(sc)
	return ok, lost
}

// JointRecoverable reports whether the federation survives the given
// per-site erasures.
func (s *System) JointRecoverable(erased [][]int) bool {
	ok, _ := s.JointDecode(erased)
	return ok
}

// CriticalSet is a component-graph failure: erasing Erased at the owning
// site loses the data blocks Lost.
type CriticalSet struct {
	Erased []int
	Lost   []int
}

// CriticalSets expands failing erasure sets (as found by the exhaustive
// worst-case search) into CriticalSets by decoding each one against g.
func CriticalSets(g *graph.Graph, failures [][]int) []CriticalSet {
	d := decode.New(g)
	out := make([]CriticalSet, 0, len(failures))
	for _, f := range failures {
		res := d.Decode(f)
		if res.OK {
			continue // not actually a failure for this graph
		}
		out = append(out, CriticalSet{Erased: f, Lost: res.UnrecoveredData})
	}
	return out
}
