package fedstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/device"
)

// residueOracle is the independent verify behind RepairSite's residue: a
// verify-only scrub of s, counting every missing block and every stripe that
// does not reconstruct.
func residueOracle(t *testing.T, s *archive.Store) (missing, unrecoverable int) {
	t.Helper()
	rep, err := s.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rep.Stripes {
		missing += len(h.Missing)
		if !h.Recoverable {
			unrecoverable++
		}
	}
	return missing, unrecoverable
}

// federation3 is the three-site federation of the seed-21..23 graphs in
// 32-byte blocks, each site's backend passed through wrap (when not nil)
// under its chaos injector, storing four multi-stripe objects. It returns the
// stripes stored per site.
func federation3(t *testing.T, cfg Config, wrap func(site int, b archive.Backend) archive.Backend) (f *Store, sites []site, stripes int) {
	t.Helper()
	for i, seed := range []uint64{21, 22, 23} {
		g := tornadoGraph(t, seed)
		devs := device.NewArray(g.Total)
		var b archive.Backend = archive.NewArrayBackend(devs)
		if wrap != nil {
			b = wrap(i, b)
		}
		inj := chaos.Wrap(b, chaos.Config{})
		store, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, site{store: store, devs: devs, inj: inj})
	}
	f, sites = fedOver(t, cfg, sites...)
	for i := 0; i < 4; i++ {
		if err := f.PutCtx(ctx, string(rune('a'+i)), testPayload(400+777*i, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range sites[0].store.List() {
		stripes += obj.Stripes
	}
	return f, sites, stripes
}

// flapBackend hides a set of nodes — unavailable, unreadable, no media epoch
// to vouch for them — for the first hideCalls Available probes, then answers
// truly: a flap that passes while a pass runs. The pass's workers probe it
// at once, so the count is atomic. It hides nothing while hideCalls is zero.
type flapBackend struct {
	archive.Backend
	hidden    []bool
	hideCalls int64
	calls     atomic.Int64
}

// Available answers the hideCalls-th probe as the flap's last.
func (b *flapBackend) Available(node int, key []byte) bool {
	if b.calls.Add(1) <= b.hideCalls && b.hidden[node] {
		return false
	}
	return b.Backend.Available(node, key)
}

func (b *flapBackend) MediaEpoch(node int) (uint64, bool) {
	if b.calls.Load() < b.hideCalls {
		return 0, false
	}
	return b.Backend.MediaEpoch(node)
}

func (b *flapBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	if b.calls.Load() < b.hideCalls && b.hidden[node] {
		return nil, fmt.Errorf("flap: node %d hidden", node)
	}
	return archive.ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

// TestRepairSiteResidueMatchesScrub holds RepairSite's residue, read off its
// own repairing passes, against a verify-only scrub of the site run after
// it. The cases cover each way the last pass's report can differ from a
// read-back: blocks a dead drive refused, a stripe no site can rebuild,
// stripes the joint exchange completed (whose residue is the rebuild pass's,
// not the donor pass's), and stripes rescued by the visit's retry of the
// nodes that were dark for its sweep.
func TestRepairSiteResidueMatchesScrub(t *testing.T) {
	for _, tc := range []struct {
		name string
		// flap hides data block 0 and every check of site 0 for the
		// first NodesPerStripe probes of the repair: within the sweep of the
		// stripes visited first.
		flap bool
		// damage is done after the objects are stored.
		damage func(t *testing.T, sites []site)
		check  func(t *testing.T, rep RepairReport, sites []site, stripes int)
	}{
		{"full wipe", false,
			func(_ *testing.T, sites []site) { wipeSite(sites[0]) },
			func(t *testing.T, rep RepairReport, _ []site, _ int) {
				if rep.MissingAfter != 0 || rep.Unrecoverable != 0 || rep.DirectImports == 0 {
					t.Errorf("report %+v, want imports and no residue", rep)
				}
			}},
		{"dead replacement drive", false,
			func(_ *testing.T, sites []site) {
				wipeSite(sites[0])
				sites[0].devs[3].Fail()
			},
			func(t *testing.T, rep RepairReport, _ []site, stripes int) {
				if rep.MissingAfter != stripes || rep.Unrecoverable != 0 {
					t.Errorf("report %+v, want %d missing (drive 3's block of each stripe), none unrecoverable", rep, stripes)
				}
			}},
		// Four dead data drives: the donors complete every stripe, but what
		// the site can store of it (all but those four) does not always
		// reconstruct it. Those stripes count as unrecoverable, and none goes
		// to the joint exchange, which could not store their blocks either.
		{"dead drives past a stripe's tolerance", false,
			func(_ *testing.T, sites []site) {
				wipeSite(sites[0])
				for _, node := range []int{1, 3, 11, 15} {
					sites[0].devs[node].Fail()
				}
			},
			func(t *testing.T, rep RepairReport, _ []site, stripes int) {
				if rep.MissingAfter != 4*stripes || rep.Unrecoverable == 0 || rep.ExchangedStripes != 0 {
					t.Errorf("report %+v, want %d missing, some stripes unrecoverable, none exchanged", rep, 4*stripes)
				}
			}},
		// Both donors lost data block 0 and every check of a's stripe 0, so
		// no site or group holds enough of it; the pass still banks the data
		// blocks the donors had and the checks over them.
		{"stripe lost at every site", false,
			func(t *testing.T, sites []site) {
				wipeSite(sites[0])
				for _, s := range sites[1:] {
					lay := s.store.Layout()
					for node := 0; node < lay.NodesPerStripe; node++ {
						if node == 0 || node >= lay.DataNodes {
							s.devs[node].Lose([]byte(fmt.Sprintf("a/0/%d", node)))
						}
					}
				}
			},
			func(t *testing.T, rep RepairReport, sites []site, _ int) {
				if rep.Unrecoverable != 1 || rep.ExchangedStripes != 0 {
					t.Errorf("report %+v, want a's stripe 0 alone unrecoverable, nothing exchanged", rep)
				}
				h := scrubHealth(t, sites[0].store, "a", 0)
				if !slices.Contains(h.Missing, 0) || slices.Contains(h.Missing, 1) {
					t.Errorf("a/0 at site 0 misses %v: want block 0 lost and block 1 banked", h.Missing)
				}
			}},
		{"exchange fallback", false,
			func(_ *testing.T, sites []site) {
				wipeSite(sites[0])
				sites[1].inj.LoseNode(0)
				sites[2].inj.LoseNode(0)
			},
			func(t *testing.T, rep RepairReport, _ []site, stripes int) {
				if rep.ExchangedStripes != stripes || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
					t.Errorf("report %+v, want %d exchanged stripes and no residue", rep, stripes)
				}
			}},
		// Site 0 keeps its media, but data block 0 and every check are
		// dark as the pass begins, and no donor holds block 0: a stripe
		// whose sweep met the flap rewrites the checks its peel re-encodes,
		// and its retry, the flap over, reads block 0 and the rest.
		{"flap during the first look", true,
			func(t *testing.T, sites []site) {
				sites[1].inj.LoseNode(0)
				sites[2].inj.LoseNode(0)
			},
			func(t *testing.T, rep RepairReport, _ []site, _ int) {
				if rep.LocalRepairs == 0 || rep.DirectImports != 0 || rep.ExchangedStripes != 0 ||
					rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
					t.Errorf("report %+v, want checks rewritten, every stripe whole after its retry", rep)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var flap *flapBackend
			var wrap func(int, archive.Backend) archive.Backend
			if tc.flap {
				flap = &flapBackend{}
				wrap = func(i int, b archive.Backend) archive.Backend {
					if i > 0 {
						return b
					}
					flap.Backend = b
					return flap
				}
			}
			f, sites, stripes := federation3(t, Config{}, wrap)
			tc.damage(t, sites)
			if flap != nil {
				lay := sites[0].store.Layout()
				flap.hidden = make([]bool, lay.NodesPerStripe)
				flap.hidden[0] = true
				for node := lay.DataNodes; node < lay.NodesPerStripe; node++ {
					flap.hidden[node] = true
				}
				flap.calls.Store(0)
				flap.hideCalls = int64(lay.NodesPerStripe)
			}
			rep, err := f.RepairSiteCtx(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			missing, unrecoverable := residueOracle(t, sites[0].store)
			if rep.MissingAfter != missing || rep.Unrecoverable != unrecoverable {
				t.Errorf("report residue missing=%d unrecoverable=%d, scrub finds %d and %d",
					rep.MissingAfter, rep.Unrecoverable, missing, unrecoverable)
			}
			tc.check(t, rep, sites, stripes)
		})
	}
}

// scrubHealth is the verify-only health of one stripe of s.
func scrubHealth(t *testing.T, s *archive.Store, name string, stripe int) archive.StripeHealth {
	t.Helper()
	rep, err := s.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rep.Stripes {
		if h.Object == name && h.Stripe == stripe {
			return h
		}
	}
	t.Fatalf("no stripe %s/%d", name, stripe)
	return archive.StripeHealth{}
}

// TestRepairSiteLeavesReadmissionToTheNextScrub: a node quarantined at the
// target stays quarantined through RepairSite — the repairing pass reads
// nothing from the blank drive that replaced it, so it has no evidence for
// the node — while Gets at the site plan around it and stay bit-exact; the
// site's next verify-only scrub reads the rebuilt frames and readmits it.
func TestRepairSiteLeavesReadmissionToTheNextScrub(t *testing.T) {
	f, sites, _ := federation3(t, Config{}, nil)
	s := sites[0].store
	for _, obj := range s.List() {
		for st := 0; st < obj.Stripes; st++ {
			if err := sites[0].inj.CorruptStored(1, fmt.Sprintf("%s/%d/1", obj.Name, st)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.ScrubCtx(ctx, false); err != nil {
		t.Fatal(err)
	}
	if q := s.Quarantined(); !slices.Equal(q, []int{1}) {
		t.Fatalf("quarantined %v after a scrub met node 1's rotten frames, want [1]", q)
	}
	wipeSite(sites[0])
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Fatalf("repair: %v, report %+v", err, rep)
	}
	if q := s.Quarantined(); !slices.Equal(q, []int{1}) {
		t.Errorf("quarantined %v after RepairSite, want [1]: the repair read nothing of node 1", q)
	}
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		got, _, err := s.GetCtx(ctx, name)
		if err != nil || !bytes.Equal(got, testPayload(400+777*i, uint64(i))) {
			t.Errorf("site 0 get %q with node 1 quarantined: %v", name, err)
		}
	}
	scrub, err := s.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(scrub.QuarantinedNodes) != 0 || len(s.Quarantined()) != 0 {
		t.Errorf("quarantined %v after the next scrub, want none: node 1 served only verified frames", s.Quarantined())
	}
}

// FuzzRepairSiteResidue is the randomized arm of the residue check. Each
// byte of a site's string damages node b%32 of federation3's site
// (target first, then the two donors) after the objects are stored and the
// target, if wipe, is wiped: b>>5 picks losing the node's frames (0: every
// stripe, 1: even stripes), rotting them (2, 3 alike), failing the drive
// (4; at a wiped target, a dead replacement), losing the node (5), replacing
// it blank (6) or nothing (7). RepairSite must not fail, and its residue must
// equal a verify-only scrub's.
func FuzzRepairSiteResidue(f *testing.F) {
	f.Add(false, []byte{}, []byte{}, []byte{})
	f.Add(true, []byte{}, []byte{}, []byte{})
	f.Add(true, []byte{4<<5 | 3}, []byte{}, []byte{})
	f.Add(true, []byte{}, []byte{0}, []byte{0})
	f.Add(true, []byte{}, []byte{2<<5 | 1}, []byte{})
	f.Add(true, []byte{}, []byte{5 << 5}, []byte{5 << 5})
	f.Add(false, []byte{2 << 5, 3<<5 | 17, 1<<5 | 5}, []byte{0, 1 << 5}, []byte{2<<5 | 1})
	rng := rand.New(rand.NewPCG(57, 3))
	for i := 0; i < 6; i++ {
		var raw [3][]byte
		for s := range raw {
			for range rng.IntN(12) {
				raw[s] = append(raw[s], byte(rng.IntN(256)))
			}
		}
		f.Add(rng.IntN(2) == 0, raw[0], raw[1], raw[2])
	}
	f.Fuzz(func(t *testing.T, wipe bool, target, donor1, donor2 []byte) {
		fed, sites, _ := federation3(t, Config{}, nil)
		if wipe {
			wipeSite(sites[0])
		}
		for i, raw := range [][]byte{target, donor1, donor2} {
			s := sites[i]
			lay := s.store.Layout()
			for _, b := range raw {
				node := int(b) % lay.NodesPerStripe
				switch kind := b >> 5; kind {
				case 0, 1, 2, 3:
					global := 0
					for _, obj := range s.store.List() {
						for st := 0; st < obj.Stripes; st, global = st+1, global+1 {
							if kind&1 == 1 && global%2 == 1 {
								continue
							}
							key := fmt.Sprintf("%s/%d/%d", obj.Name, st, node)
							if kind < 2 {
								s.devs[node].Lose([]byte(key))
							} else {
								_ = s.inj.CorruptStored(node, key) // a frame already lost stays lost
							}
						}
					}
				case 4:
					s.devs[node].Fail()
				case 5:
					s.inj.LoseNode(node)
				case 6:
					s.devs[node].Fail()
					s.inj.VoidNode(node)
					s.devs[node].Replace()
				}
			}
		}
		rep, err := fed.RepairSiteCtx(ctx, 0)
		if err != nil {
			t.Fatalf("repair: %v (report %+v)", err, rep)
		}
		missing, unrecoverable := residueOracle(t, sites[0].store)
		if rep.MissingAfter != missing || rep.Unrecoverable != unrecoverable {
			t.Errorf("report residue missing=%d unrecoverable=%d, scrub finds %d and %d (report %+v)",
				rep.MissingAfter, rep.Unrecoverable, missing, unrecoverable, rep)
		}
	})
}
