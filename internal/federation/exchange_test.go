package federation

import (
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"tornado/internal/graph"
	"tornado/internal/graphml"
)

// referenceJointDecode is the paper's §5.3 procedure as written, and the
// oracle of the union peel: every site peels its own graph, the sites
// exchange every data block any of them holds, and both repeat to fixpoint.
// It shares no code with JointDecode or the Decoder.
func referenceJointDecode(sites []*graph.Graph, erased [][]int) (ok bool, lost []int) {
	present := make([][]bool, len(sites))
	for i, g := range sites {
		present[i] = make([]bool, g.Total)
		for v := range present[i] {
			present[i][v] = !slices.Contains(erased[i], v)
		}
	}
	for changed := true; changed; {
		changed = false
		for i, g := range sites {
			changed = referencePeel(g, present[i]) || changed
		}
		for v := 0; v < sites[0].Data; v++ {
			held := slices.ContainsFunc(present, func(p []bool) bool { return p[v] })
			for _, p := range present {
				if held && !p[v] {
					p[v], changed = true, true
				}
			}
		}
	}
	for v := 0; v < sites[0].Data; v++ {
		if !present[0][v] { // after exchange, missing at one site is missing at all
			lost = append(lost, v)
		}
	}
	return len(lost) == 0, lost
}

// referencePeel sweeps the two peeling rules over one site's checks until
// neither fires, and reports whether any did.
func referencePeel(g *graph.Graph, present []bool) (progress bool) {
	for again := true; again; {
		again = false
		for r := g.Data; r < g.Total; r++ {
			missing, last := 0, -1
			for _, l := range g.LeftNeighbors(r) {
				if !present[l] {
					missing, last = missing+1, int(l)
				}
			}
			if present[r] && missing == 1 {
				present[last], again = true, true
			} else if !present[r] && missing == 0 {
				present[r], again = true, true
			}
		}
		progress = progress || again
	}
	return progress
}

// exchangePool is the graphs the differential tests draw sites from: the
// three shipped tornado96 graphs and two generated ones, 48 data nodes each.
func exchangePool(t testing.TB) []*graph.Graph {
	t.Helper()
	var pool []*graph.Graph
	for _, name := range []string{"tornado96-1", "tornado96-2", "tornado96-3"} {
		f, err := os.Open("../../precompiled/" + name + ".graphml")
		if err != nil {
			t.Fatal(err)
		}
		g, err := graphml.Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, g)
	}
	for _, seed := range []uint64{3, 11} {
		pool = append(pool, tornadoSite(t, seed))
	}
	return pool
}

// checkAgainstExchange compares JointDecode with the reference on one
// erasure and reports whether it was a joint failure.
func checkAgainstExchange(t *testing.T, sites []*graph.Graph, erased [][]int) (failed bool) {
	t.Helper()
	sys, err := NewSystem(sites...)
	if err != nil {
		t.Fatal(err)
	}
	wantOK, wantLost := referenceJointDecode(sites, erased)
	gotOK, gotLost := sys.JointDecode(erased)
	if gotOK != wantOK || !slices.Equal(gotLost, wantLost) {
		t.Fatalf("JointDecode(%v) = (%v, %v), exchange fixpoint = (%v, %v)", erased, gotOK, gotLost, wantOK, wantLost)
	}
	return !wantOK
}

// randomJointErasure draws one erasure per site. Independent uniform sets
// almost never fail jointly, so half the draws first erase one shared set
// of data blocks everywhere — the correlated loss a joint failure needs.
func randomJointErasure(rng *rand.Rand, sites []*graph.Graph) [][]int {
	var shared []int
	if rng.IntN(2) == 0 {
		shared = rng.Perm(sites[0].Data)[:1+rng.IntN(12)]
	}
	erased := make([][]int, len(sites))
	for i, g := range sites {
		erased[i] = append(slices.Clone(shared), rng.Perm(g.Total)[:rng.IntN(g.Total*3/4)]...)
	}
	return erased
}

// TestJointDecodeMatchesExchange is the seeded arm of the differential
// battery: ok and lost must equal the exchange fixpoint's on 12,000 random
// 2- and 3-site erasures, at least 500 of them joint failures.
func TestJointDecodeMatchesExchange(t *testing.T) {
	pool := exchangePool(t)
	rng := rand.New(rand.NewPCG(2006, 0x53))
	failures := 0
	const trials = 12000
	for trial := 0; trial < trials; trial++ {
		sites := make([]*graph.Graph, 2+rng.IntN(2))
		for i := range sites {
			sites[i] = pool[rng.IntN(len(pool))]
		}
		if checkAgainstExchange(t, sites, randomJointErasure(rng, sites)) {
			failures++
		}
	}
	t.Logf("%d joint failures in %d trials", failures, trials)
	if failures < 500 {
		t.Errorf("only %d joint failures in %d trials: the battery does not exercise the failing side", failures, trials)
	}
}

// TestJointDecodeStraddlingLevel covers what no generated graph has: a level
// whose left range spans data nodes and checks, which the union graph must
// widen over the other site's checks. Every pair of erasures of two such
// 7-node sites (and a plain third) is compared with the exchange fixpoint.
func TestJointDecodeStraddlingLevel(t *testing.T) {
	build := func(top []int) *graph.Graph {
		b := graph.NewBuilder(4)
		r := b.AddLevel(0, 4, 2)
		top0 := b.AddLevel(2, 4, 1) // left range: data 2, 3 and checks 4, 5
		g := b.Graph()
		g.SetNeighbors(r, []int{0, 1, 2})
		g.SetNeighbors(r+1, []int{1, 2, 3})
		g.SetNeighbors(top0, top)
		return g
	}
	subset := func(mask, n int) (set []int) {
		for v := 0; v < n; v++ {
			if mask>>v&1 != 0 {
				set = append(set, v)
			}
		}
		return set
	}
	a, b, c := build([]int{3, 4}), build([]int{2, 5}), mirrorSite(4)
	failures := 0
	for ea := 0; ea < 1<<7; ea++ {
		for eb := 0; eb < 1<<7; eb++ {
			if checkAgainstExchange(t, []*graph.Graph{a, b}, [][]int{subset(ea, 7), subset(eb, 7)}) {
				failures++
			}
		}
		checkAgainstExchange(t, []*graph.Graph{c, b, a}, [][]int{subset(ea, 8), subset(ea*37%128, 7), subset(ea, 7)})
	}
	if failures == 0 {
		t.Error("no joint failure among all erasure pairs")
	}
}

// FuzzJointDecodeMatchesExchange is the randomized arm: pick chooses 2 or 3
// sites from the pool, and each site's erasure is an arbitrary byte string
// of node IDs (repeats and any order included).
func FuzzJointDecodeMatchesExchange(f *testing.F) {
	pool := exchangePool(f)
	decodeInput := func(pick uint8, raw ...[]byte) ([]*graph.Graph, [][]int) {
		sites := make([]*graph.Graph, 2+pick%2)
		erased := make([][]int, len(sites))
		for i, digit := 0, int(pick/2); i < len(sites); i, digit = i+1, digit/len(pool) {
			sites[i] = pool[digit%len(pool)]
			for _, b := range raw[i] {
				erased[i] = append(erased[i], int(b)%sites[i].Total)
			}
		}
		return sites, erased
	}

	f.Add(uint8(0), []byte{}, []byte{}, []byte{})
	f.Add(uint8(3), []byte{0, 0, 95, 48}, []byte{48, 0}, []byte{7})
	// Seeds that fail jointly: every data block gone everywhere, and seeded
	// heavy erasures kept only when the exchange fixpoint loses data.
	everyData := make([]byte, 48)
	for v := range everyData {
		everyData[v] = byte(v)
	}
	f.Add(uint8(2*7+1), everyData, everyData, everyData)
	rng := rand.New(rand.NewPCG(22, 0x53))
	for failing := 0; failing < 6; {
		pick := uint8(rng.IntN(250))
		var raw [3][]byte
		shared := rng.Perm(48)[:8]
		for i := range raw {
			for _, v := range append(shared, rng.Perm(96)[:40+rng.IntN(30)]...) {
				raw[i] = append(raw[i], byte(v))
			}
		}
		if ok, _ := referenceJointDecode(decodeInput(pick, raw[:]...)); !ok {
			f.Add(pick, raw[0], raw[1], raw[2])
			failing++
		}
	}

	f.Fuzz(func(t *testing.T, pick uint8, a, b, c []byte) {
		sites, erased := decodeInput(pick, a, b, c)
		checkAgainstExchange(t, sites, erased)
	})
}
