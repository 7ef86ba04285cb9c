package fedstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/decode"
	"tornado/internal/device"
	"tornado/internal/federation"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/raid"
)

// jointRig is a three-site federation of the shipped tornado96-1..3 graphs
// behind one WAN, storing two-stripe objects of 32-byte blocks. Each trial
// stores a fresh object, cuts links and loses blocks, reads the object, then
// heals every link and deletes it.
type jointRig struct {
	f      *Store
	w      *chaos.WAN
	sites  []site
	graphs []*graph.Graph
	trial  int
}

// jointStripes is the stripe count of a jointRig object: two, so a site's
// failed Get may have lost a stripe another site has not.
const jointStripes = 2

// jointLinks are the three site pairs; bit b of a cut mask cuts jointLinks[b].
var jointLinks = [][2]int{{0, 1}, {0, 2}, {1, 2}}

func newJointRig(tb testing.TB) *jointRig {
	tb.Helper()
	r := &jointRig{w: chaos.NewWAN(chaos.WANConfig{Sites: 3})}
	var stores []*archive.Store
	for i := 1; i <= 3; i++ {
		g, err := graphml.ReadFile(fmt.Sprintf("../../precompiled/tornado96-%d.graphml", i))
		if err != nil {
			tb.Fatal(err)
		}
		devs := device.NewArray(g.Total)
		inj := chaos.Wrap(archive.NewArrayBackend(devs), chaos.Config{})
		s, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 32})
		if err != nil {
			tb.Fatal(err)
		}
		r.sites = append(r.sites, site{store: s, devs: devs, inj: inj})
		r.graphs = append(r.graphs, g)
		stores = append(stores, s)
	}
	f, err := New(stores, Config{WAN: r.w})
	if err != nil {
		tb.Fatal(err)
	}
	r.f = f
	return r
}

// expect is the oracle of GetCtx on a damaged object, taken from the
// analytical model alone: the read succeeds iff every stripe survives in
// some link-connected group of sites — a block crosses up links hop by hop
// — that is, a lone site decodes its own survivors of it, or a group of two
// or more is JointRecoverable on a System of its own. erased[i][st] is what
// site i lost of stripe st.
func (r *jointRig) expect(t *testing.T, cuts uint8, erased [][][]int) bool {
	t.Helper()
	linked := func(a, b int) bool {
		return cuts>>slices.Index(jointLinks, [2]int{min(a, b), max(a, b)})&1 == 0
	}
	var groups [][]int
	placed := make([]bool, len(r.graphs))
	for first := range r.graphs {
		if placed[first] {
			continue
		}
		placed[first] = true
		group := []int{first}
		for q := 0; q < len(group); q++ {
			for j := range r.graphs {
				if !placed[j] && linked(group[q], j) {
					placed[j] = true
					group = append(group, j)
				}
			}
		}
		groups = append(groups, group)
	}
	survives := func(st int) bool {
		for _, group := range groups {
			if len(group) == 1 {
				if decode.New(r.graphs[group[0]]).Decode(erased[group[0]][st]).OK {
					return true
				}
				continue
			}
			var gs []*graph.Graph
			var es [][]int
			for _, i := range group {
				gs, es = append(gs, r.graphs[i]), append(es, erased[i][st])
			}
			sys, err := federation.NewSystem(gs...)
			if err != nil {
				t.Fatal(err)
			}
			if sys.JointRecoverable(es) {
				return true
			}
		}
		return false
	}
	for st := 0; st < jointStripes; st++ {
		if !survives(st) {
			return false
		}
	}
	return true
}

// run stores one object, cuts the links of the cuts mask, loses
// erased[i][st] of stripe st at site i and checks GetCtx against expect. It
// reports whether the data survived.
func (r *jointRig) run(t *testing.T, cuts uint8, erased [][][]int) bool {
	t.Helper()
	r.trial++
	name := fmt.Sprintf("obj-%d", r.trial)
	lay := r.f.Layout()
	payload := testPayload(jointStripes*lay.DataNodes*lay.BlockSize, uint64(r.trial))
	if err := r.f.PutCtx(ctx, name, payload); err != nil {
		t.Fatal(err)
	}
	for b, l := range jointLinks {
		if cuts>>b&1 != 0 {
			r.w.Partition(l[0], l[1])
		}
	}
	for i, s := range r.sites {
		for st, lost := range erased[i] {
			for _, v := range lost {
				s.devs[v].Lose([]byte(fmt.Sprintf("%s/%d/%d", name, st, v)))
			}
		}
	}
	want := r.expect(t, cuts, erased)
	got, err := r.f.GetCtx(ctx, name)
	switch {
	case want && (err != nil || !bytes.Equal(got, payload)):
		t.Fatalf("cuts %03b, erased %v: the union peel recovers, GetCtx err = %v, bytes exact %v", cuts, erased, err, bytes.Equal(got, payload))
	case !want && !errors.Is(err, archive.ErrDataLoss):
		t.Fatalf("cuts %03b, erased %v: the union peel loses data, GetCtx err = %v", cuts, erased, err)
	}
	r.w.HealAll()
	if err := r.f.DeleteCtx(ctx, name); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestExchangeMatchesJointDecode ties the store's bytes to Table 7's model.
// Each site loses a random 55–84 of its 96 blocks of each stripe, so none
// holds the 48 it would need alone. With every link up, GetCtx must succeed
// iff the three sites' System is JointRecoverable on each stripe, and return
// the payload; with random link cuts, iff each stripe survives in some
// link-connected group of sites on a System of its own. A last arm loses
// from 30 blocks up, so a site cut off from the others may decode a stripe
// they lost while it lost the other.
func TestExchangeMatchesJointDecode(t *testing.T) {
	r := newJointRig(t)
	rng := rand.New(rand.NewPCG(48, 0x53))
	lose := func(least int) [][][]int {
		erased := make([][][]int, len(r.graphs))
		for i, g := range r.graphs {
			for st := 0; st < jointStripes; st++ {
				erased[i] = append(erased[i], rng.Perm(g.Total)[:least+rng.IntN(85-least)])
			}
		}
		return erased
	}
	for _, arm := range []struct {
		name   string
		trials int
		least  int // each site loses least..84 blocks of each stripe
		cuts   func() uint8
	}{
		{"all links up", 300, 55, func() uint8 { return 0 }},
		{"random link cuts", 200, 55, func() uint8 { return uint8(rng.IntN(8)) }},
		{"random link cuts, some stripes decodable alone", 200, 30, func() uint8 { return uint8(rng.IntN(8)) }},
	} {
		recovered := 0
		for trial := 0; trial < arm.trials; trial++ {
			if r.run(t, arm.cuts(), lose(arm.least)) {
				recovered++
			}
		}
		t.Logf("%s: %d of %d trials recovered", arm.name, recovered, arm.trials)
		if recovered == 0 || recovered == arm.trials {
			t.Errorf("%s: %d of %d recovered, the battery does not exercise both sides", arm.name, recovered, arm.trials)
		}
	}
	if got, want := r.f.ExchangeTotals(), r.f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
}

// FuzzExchangeMatchesJoint is the randomized arm of the same check: cuts
// names the links to cut (its low three bits), and each byte v of a site's
// string loses node (v>>1)%96 of stripe v&1 there, in any order and with
// repeats, so a site may also decode a stripe alone.
func FuzzExchangeMatchesJoint(f *testing.F) {
	r := newJointRig(f)
	span := func(lo, hi int, stripe byte) []byte {
		var raw []byte
		for v := lo; v < hi; v++ {
			raw = append(raw, byte(v)<<1|stripe)
		}
		return raw
	}
	f.Add(uint8(0), []byte{}, []byte{}, []byte{})
	f.Add(uint8(7), span(0, 60, 0), span(30, 90, 1), span(10, 70, 0))
	f.Add(uint8(1), append(span(0, 70, 0), span(20, 96, 1)...), span(20, 96, 0), span(40, 96, 1))
	rng := rand.New(rand.NewPCG(48, 7))
	for i := 0; i < 6; i++ {
		var raw [3][]byte
		for s := range raw {
			for st := byte(0); st < jointStripes; st++ {
				for _, v := range rng.Perm(96)[:55+rng.IntN(30)] {
					raw[s] = append(raw[s], byte(v)<<1|st)
				}
			}
		}
		f.Add(uint8(rng.IntN(8)), raw[0], raw[1], raw[2])
	}
	f.Fuzz(func(t *testing.T, cuts uint8, a, b, c []byte) {
		erased := make([][][]int, 3)
		for i, raw := range [][]byte{a, b, c} {
			erased[i] = make([][]int, jointStripes)
			for _, v := range raw {
				st, n := int(v&1), int(v>>1)%r.graphs[i].Total
				if !slices.Contains(erased[i][st], n) {
					erased[i][st] = append(erased[i][st], n)
				}
			}
		}
		r.run(t, cuts&7, erased)
	})
}

// TestExchangeRecoversStripesLostAtDifferentSites: the exchange runs per
// stripe, after every site failed the whole object, so a site cut off from
// the rest may still be the one that decodes a stripe — the others lost it,
// while it lost another. Two sites with their link cut, each missing a
// different stripe; and a site cut off from a linked pair, holding the one
// stripe the pair lost, while the pair decodes the stripe it lost only
// jointly.
func TestExchangeRecoversStripesLostAtDifferentSites(t *testing.T) {
	g := raid.MirroredGraph(4) // data 0..3 mirrored at 4..7
	for _, tc := range []struct {
		name string
		cuts [][2]int
		lost [][][]int // lost[i][st]: the data blocks site i lost both copies of
	}{
		{"two sites, link cut", [][2]int{{0, 1}}, [][][]int{{{0}, {}}, {{}, {1}}}},
		{"lone site beside a linked pair", [][2]int{{0, 1}, {0, 2}}, [][][]int{{{}, {0}}, {{0}, {1}}, {{0}, {2}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := chaos.NewWAN(chaos.WANConfig{Sites: len(tc.lost)})
			var sites []site
			for range tc.lost {
				sites = append(sites, newSiteWithGraph(t, g.Clone(), 32))
			}
			f, _ := fedOver(t, Config{WAN: w}, sites...)
			data := testPayload(2*4*32, 10) // two full stripes
			if err := f.PutCtx(ctx, "obj", data); err != nil {
				t.Fatal(err)
			}
			for _, l := range tc.cuts {
				w.Partition(l[0], l[1])
			}
			for i, s := range sites {
				for st, lost := range tc.lost[i] {
					for _, v := range lost {
						for _, node := range []int{v, v + 4} {
							s.devs[node].Lose([]byte(fmt.Sprintf("obj/%d/%d", st, node)))
						}
					}
				}
				if _, _, err := s.store.GetCtx(ctx, "obj"); !errors.Is(err, archive.ErrDataLoss) {
					t.Fatalf("site %d alone should report data loss, got %v", i, err)
				}
			}
			got, err := f.GetCtx(ctx, "obj")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("federated get: err=%v exact=%v", err, bytes.Equal(got, data))
			}
			if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
				t.Errorf("conservation: facade %+v != sites %+v", got, want)
			}
		})
	}
}

// statCounter is a Site that counts the Stat calls reaching it.
type statCounter struct {
	Site
	stats *int
}

func (s statCounter) Stat(ctx context.Context, name string) (archive.Object, error) {
	*s.stats++
	return s.Site.Stat(ctx, name)
}

// TestExchangeStatsEachSiteOnce: which sites take part in an exchange is
// settled once per Get, not once per stripe — over HTTP every Stat is a
// round trip — so a four-stripe exchange asks each site once.
func TestExchangeStatsEachSiteOnce(t *testing.T) {
	g := raid.MirroredGraph(4)
	a, b := newSiteWithGraph(t, g, 32), newSiteWithGraph(t, g.Clone(), 32)
	stats := 0
	f, err := Open(ctx, []Site{statCounter{local{a.store}, &stats}, statCounter{local{b.store}, &stats}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(4*4*32, 9) // four full stripes
	if err := f.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	a.inj.LoseNode(0)
	a.inj.LoseNode(4)
	b.inj.LoseNode(1)
	b.inj.LoseNode(5)
	stats = 0
	got, err := f.GetCtx(ctx, "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("federated get: err=%v exact=%v", err, bytes.Equal(got, data))
	}
	if stripes := f.Metrics().Counter("fedstore.exchange.stripes").Value(); stripes != 4 || stats != 2 {
		t.Errorf("%d stripes exchanged with %d Stat calls, want 4 with 2", stripes, stats)
	}
}
