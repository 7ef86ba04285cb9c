package fedstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/repairbw"
)

// countingBackend counts the block reads and writes that reach a site's
// devices.
type countingBackend struct {
	archive.Backend
	reads, writes atomic.Int64
}

func (b *countingBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	b.reads.Add(1)
	return archive.ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

func (b *countingBackend) Write(ctx context.Context, node int, key, data []byte) error {
	b.writes.Add(1)
	return b.Backend.Write(ctx, node, key, data)
}

// wipedFederation is federation3 over counting backends, with site 0 wiped
// and the counts reset.
func wipedFederation(t *testing.T, cfg Config) (f *Store, sites []site, counts []*countingBackend, stripes int) {
	t.Helper()
	return damagedFederation(t, cfg, func(sites []site) { wipeSite(sites[0]) })
}

// damagedFederation is federation3 over counting backends, damaged and with
// the counts reset.
func damagedFederation(t *testing.T, cfg Config, damage func([]site)) (f *Store, sites []site, counts []*countingBackend, stripes int) {
	t.Helper()
	f, sites, stripes = federation3(t, cfg, func(_ int, b archive.Backend) archive.Backend {
		cb := &countingBackend{Backend: b}
		counts = append(counts, cb)
		return cb
	})
	damage(sites)
	for _, cb := range counts {
		cb.reads.Store(0)
		cb.writes.Store(0)
	}
	return f, sites, counts, stripes
}

// liveBlocks is how many data blocks each stripe of s's objects fills, in
// List order: the rest of a stripe's data blocks are zero padding, which a
// repair knows at home and never asks a donor for.
func liveBlocks(s *archive.Store) []int {
	lay := s.Layout()
	var live []int
	for _, obj := range s.List() {
		for st := 0; st < obj.Stripes; st++ {
			n := min(obj.Size-st*lay.StripeCapacity, lay.StripeCapacity)
			live = append(live, (n+lay.BlockSize-1)/lay.BlockSize)
		}
	}
	return live
}

// setProcs runs the rest of the test at GOMAXPROCS n: RepairSite's pass is as
// wide as the default stream width, which is clamped to it.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestRepairSiteBlockOpBudget: rebuilding a blank site of S stripes costs the
// donors one read per live data block and the site one write per block —
// nothing is read at the site, whose media holds nothing, nothing is read
// twice, no check block or zero padding crosses the WAN, and the second donor
// is never asked.
func TestRepairSiteBlockOpBudget(t *testing.T) {
	f, sites, counts, stripes := wipedFederation(t, Config{})
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Fatalf("residue: %+v", rep)
	}
	lay := sites[0].store.Layout()
	data, total := int64(stripes*lay.DataNodes), int64(stripes*lay.NodesPerStripe)
	var live int64
	for _, n := range liveBlocks(sites[0].store) {
		live += int64(n)
	}
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"first donor reads", counts[1].reads.Load(), live},
		{"second donor reads", counts[2].reads.Load(), 0},
		{"donor writes", counts[1].writes.Load() + counts[2].writes.Load(), 0},
		{"target writes", counts[0].writes.Load(), total},
		{"target reads", counts[0].reads.Load(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
	if rep.DirectImports != int(live) || rep.LocalRepairs != int(data-live) || rep.ExchangedStripes != 0 {
		t.Errorf("report %+v, want %d imports, the %d padding blocks rebuilt at home and nothing else", rep, live, data-live)
	}
}

// TestRepairSiteAllocBudget is the allocation gate on a site rebuild. Once a
// first repair has built the stripe scratches, wiping the site again and
// rebuilding it must allocate under a tenth of the framed bytes it rebuilds:
// the replacement drives refill the dead drives' slabs, and donor blocks land
// in the pass's stripe scratch. A device that carves new slabs for the
// replacement, or a donor block read into a frame of its own, costs a good
// share of the rebuilt bytes and fails it.
func TestRepairSiteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches, which are then rebuilt")
	}
	f, stores, _, devs := shippedFederation(t, 8)
	lay := stores[0].Layout()
	framed := uint64(0)
	for _, obj := range stores[0].List() {
		framed += uint64(obj.Stripes * lay.NodesPerStripe * lay.FrameSize())
	}
	repair := func() {
		for _, d := range devs[0] {
			d.Fail()
			d.Replace()
		}
		if rep, err := f.RepairSiteCtx(ctx, 0); err != nil || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
			t.Fatalf("repair: %v, report %+v", err, rep)
		}
	}
	repair()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	repair()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got*10 >= framed {
		t.Errorf("wipe and repair allocate %d bytes, %.0f%% of the %d framed bytes rebuilt; the budget is 10%%", got, 100*float64(got)/float64(framed), framed)
	}
	t.Logf("wipe and repair: %d bytes allocated for %d framed bytes rebuilt", got, framed)
}

// TestRepairSiteWidthChangesNothing: one worker or several, the same wiped
// federation ends up with the same report and the same bytes on every device
// — with every donor whole, and with data block 0 lost at every donor, where
// each stripe goes through the joint exchange on the pass's workers.
func TestRepairSiteWidthChangesNothing(t *testing.T) {
	run := func(procs int, exchange bool) (RepairReport, [][]byte) {
		setProcs(t, procs)
		f, sites, _, _ := wipedFederation(t, Config{})
		if exchange {
			sites[1].inj.LoseNode(0)
			sites[2].inj.LoseNode(0)
		}
		rep, err := f.RepairSiteCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		var stored [][]byte
		for _, s := range sites {
			for _, obj := range s.store.List() {
				for st := 0; st < obj.Stripes; st++ {
					for node, dev := range s.devs {
						b, err := dev.Read([]byte(fmt.Sprintf("%s/%d/%d", obj.Name, st, node)))
						if err != nil {
							t.Fatalf("procs=%d: %s stripe %d node %d: %v", procs, obj.Name, st, node, err)
						}
						stored = append(stored, b)
					}
				}
			}
		}
		return rep, stored
	}
	for _, exchange := range []bool{false, true} {
		serialRep, serial := run(1, exchange)
		wideRep, wide := run(4, exchange)
		if serialRep != wideRep {
			t.Errorf("exchange %v: reports differ:\n 1 proc  %+v\n 4 procs %+v", exchange, serialRep, wideRep)
		}
		if exchange != (serialRep.ExchangedStripes > 0) {
			t.Errorf("exchange %v: %d stripes exchanged", exchange, serialRep.ExchangedStripes)
		}
		if !reflect.DeepEqual(serial, wide) {
			t.Errorf("exchange %v: device contents differ between one worker and several", exchange)
		}
	}
}

// TestRepairSiteStatsEachSiteOnce: the pass's workers run the exchange for
// several stripes at once, but which sites take part in an object's exchange
// is settled once — over HTTP every Stat is a round trip — so a repair that
// exchanges every stripe asks each site once per object.
func TestRepairSiteStatsEachSiteOnce(t *testing.T) {
	setProcs(t, 4)
	_, sites, stripes := federation3(t, Config{}, nil)
	stats := make([]int, len(sites))
	var wrapped []Site
	for i, s := range sites {
		wrapped = append(wrapped, statCounter{local{s.store}, &stats[i]})
	}
	f, err := Open(ctx, wrapped, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wipeSite(sites[0])
	sites[1].inj.LoseNode(0)
	sites[2].inj.LoseNode(0)
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	objects := len(sites[0].store.List())
	if rep.ExchangedStripes != stripes {
		t.Fatalf("report %+v, want all %d stripes exchanged", rep, stripes)
	}
	for i, n := range stats {
		if n != objects {
			t.Errorf("site %d answered %d Stat calls, want one for each of the %d objects", i, n, objects)
		}
	}
}

// TestRepairSiteDeadReplacementDrive: a replacement drive that is itself dead
// refuses its blocks. The repair finishes the rest of the site, reports what
// crossed the WAN, and leaves that drive's blocks — all still recoverable —
// to the residue count and a later run.
func TestRepairSiteDeadReplacementDrive(t *testing.T) {
	f, sites, _, stripes := wipedFederation(t, Config{})
	sites[0].devs[3].Fail()
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatalf("one dead drive aborted the repair: %v (report %+v)", err, rep)
	}
	if rep.MissingAfter != stripes || rep.Unrecoverable != 0 {
		t.Errorf("residue missing=%d unrecoverable=%d, want %d (one block a stripe) and 0", rep.MissingAfter, rep.Unrecoverable, stripes)
	}
	live, lost := 0, 0 // data blocks read at the donors, and those bound for drive 3
	for _, n := range liveBlocks(sites[0].store) {
		live += n
		if n > 3 {
			lost++
		}
	}
	if rep.Exchange.BlocksRead != live || rep.Exchange.BlocksWritten != live-lost || rep.DirectImports != live-lost {
		t.Errorf("report %+v: want %d live data blocks read at the donors, all but the %d bound for drive 3 written home", rep, live, lost)
	}
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
	sites[0].devs[3].Replace()
	rep, err = f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingAfter != 0 || rep.LocalRepairs != stripes || rep.DirectImports != 0 {
		t.Errorf("second run %+v: want the %d blocks rebuilt locally, none left", rep, stripes)
	}
}

// TestRepairSiteErrorStillReportsExchange: a repair cut short returns the
// traffic it had already caused, and the facade's tally still matches the
// sites' meters.
func TestRepairSiteErrorStillReportsExchange(t *testing.T) {
	w := chaos.NewWAN(chaos.WANConfig{Sites: 3})
	f, _, _, _ := wipedFederation(t, Config{WAN: w})
	w.LimitLink(0, 1, 100) // one 36-byte frame every 0.36 s: the repair cannot finish
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := f.RepairSiteCtx(ctx, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if rep.Exchange.BlocksRead == 0 || rep.Exchange != f.ExchangeTotals() {
		t.Errorf("report carries %+v, the facade moved %+v", rep.Exchange, f.ExchangeTotals())
	}
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
}

// TestRepairSiteExchangeFallback: every donor has lost the device holding
// data block 0, so no replica of it is on disk anywhere and each stripe goes
// through the joint exchange — within the pass's one visit to it. The blank
// site reads nothing of its own and writes each block of each stripe once:
// the imported data, the exchanged block 0 and the checks over them.
func TestRepairSiteExchangeFallback(t *testing.T) {
	f, sites, counts, stripes := wipedFederation(t, Config{})
	sites[1].inj.LoseNode(0)
	sites[2].inj.LoseNode(0)
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, n := range liveBlocks(sites[0].store) {
		live += n
	}
	if rep.ExchangedStripes != stripes || rep.DirectImports != live-stripes || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Errorf("report %+v, want %d exchanged stripes, the other %d live data blocks imported and no residue", rep, stripes, live-stripes)
	}
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
	// Every block is on its device, so as many writes as blocks is one each.
	blocks := 0
	for _, obj := range sites[0].store.List() {
		for st := 0; st < obj.Stripes; st++ {
			for node, dev := range sites[0].devs {
				if _, err := dev.Read([]byte(fmt.Sprintf("%s/%d/%d", obj.Name, st, node))); err != nil {
					t.Errorf("%s stripe %d node %d not written: %v", obj.Name, st, node, err)
				}
				blocks++
			}
		}
	}
	if r, w := counts[0].reads.Load(), counts[0].writes.Load(); r != 0 || w != int64(blocks) {
		t.Errorf("site 0: %d reads, %d writes; want none and one for each of its %d blocks", r, w, blocks)
	}
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		got, _, err := sites[0].store.GetCtx(ctx, name)
		if err != nil || !bytes.Equal(got, testPayload(400+777*i, uint64(i))) {
			t.Errorf("repaired site get %q: %v", name, err)
		}
	}
}

// TestRepairSiteNoNeedlessExchange: the site keeps its checks but loses every
// data frame, and no donor holds data block 0. The first donor supplies the
// other data blocks and the site's own checks rebuild block 0, so no stripe
// goes to the joint exchange — a donor that exchanged whenever a block had no
// single donor would read every block of both donors here.
func TestRepairSiteNoNeedlessExchange(t *testing.T) {
	f, _, counts, _ := damagedFederation(t, Config{}, func(sites []site) {
		for node := 0; node < sites[0].store.Layout().DataNodes; node++ {
			sites[0].devs[node].Fail()
			sites[0].inj.VoidNode(node)
			sites[0].devs[node].Replace()
		}
		sites[1].inj.LoseNode(0)
		sites[2].inj.LoseNode(0)
	})
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := RepairReport{LocalRepairs: 37, DirectImports: 175,
		Exchange: repairbw.CostReport{BlocksRead: 175, BlocksWritten: 175, BytesRead: 6300, BytesWritten: 6300}}
	if rep != want {
		t.Errorf("report\n %+v, want\n %+v", rep, want)
	}
	for i, want := range []int64{224, 175, 0} { // the site's checks; the donated data blocks
		if got := counts[i].reads.Load(); got != want {
			t.Errorf("site %d: %d reads, want %d", i, got, want)
		}
	}
}

// TestRepairSiteExchangeReadsTargetOnce: the target keeps data blocks 1 and
// up but loses block 0 and every check, and no donor holds block 0, so each
// stripe goes to the joint exchange. The exchange takes the target's blocks
// from the repair pass, which has just read them: the target reads each
// surviving block once.
func TestRepairSiteExchangeReadsTargetOnce(t *testing.T) {
	f, sites, counts, stripes := damagedFederation(t, Config{}, func(sites []site) {
		lay := sites[0].store.Layout()
		for node := 0; node < lay.NodesPerStripe; node++ {
			if node == 0 || node >= lay.DataNodes {
				sites[0].devs[node].Fail()
				sites[0].inj.VoidNode(node)
				sites[0].devs[node].Replace()
			}
		}
		sites[1].inj.LoseNode(0)
		sites[2].inj.LoseNode(0)
	})
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExchangedStripes != stripes || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Errorf("report %+v, want all %d stripes exchanged and no residue", rep, stripes)
	}
	if got, want := counts[0].reads.Load(), int64(stripes*(sites[0].store.Layout().DataNodes-1)); got != want {
		t.Errorf("site 0: %d reads, want %d, one for each surviving block", got, want)
	}
}

// TestRepairSiteUnderByteCap: on a link capped at r bytes/s a repair takes at
// least imported bytes / r however many workers it runs, and the cap changes
// nothing but the time.
func TestRepairSiteUnderByteCap(t *testing.T) {
	f, _, _, _ := wipedFederation(t, Config{WAN: chaos.NewWAN(chaos.WANConfig{Sites: 3})})
	uncapped, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		w := chaos.NewWAN(chaos.WANConfig{Sites: 3})
		f, _, _, _ := wipedFederation(t, Config{WAN: w})
		const rate = 200_000 // bytes/s
		w.LimitLink(1, 0, rate)
		t0 := time.Now()
		rep, err := f.RepairSiteCtx(ctx, 0)
		took := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if rep != uncapped {
			t.Errorf("procs=%d: capped report %+v, uncapped %+v", procs, rep, uncapped)
		}
		floor := time.Duration(rep.Exchange.BytesWritten) * time.Second / rate
		if floor < 20*time.Millisecond {
			t.Fatalf("floor %v too short to measure", floor)
		}
		if took < floor {
			t.Errorf("procs=%d: %d bytes crossed a %d B/s link in %v, under the %v it takes", procs, rep.Exchange.BytesWritten, rate, took, floor)
		}
	}
}

// TestRepairSiteExchangeUnderByteCap: the blocks the joint exchange hands the
// repair pass cross the link into the target as every imported block does.
// Site 2 is wiped, site 0 keeps only its checks and site 1 has lost data
// block 0: site 1 serves every other data block over the 1–2 link, the
// exchange's write-back to sites 0 and 1 runs over 0–1, and the only traffic
// on the capped 0–2 link is the exchanged block 0 of each stripe, so the
// repair takes at least that many frames / r.
func TestRepairSiteExchangeUnderByteCap(t *testing.T) {
	w := chaos.NewWAN(chaos.WANConfig{Sites: 3})
	f, _, _, stripes := damagedFederation(t, Config{WAN: w}, func(sites []site) {
		wipeSite(sites[2])
		for node := 0; node < sites[0].store.Layout().DataNodes; node++ {
			sites[0].inj.LoseNode(node)
		}
		sites[1].inj.LoseNode(0)
	})
	const rate = 4_000 // bytes/s
	w.LimitLink(0, 2, rate)
	t0 := time.Now()
	rep, err := f.RepairSiteCtx(ctx, 2)
	took := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExchangedStripes != stripes || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Fatalf("report %+v, want all %d stripes exchanged and no residue", rep, stripes)
	}
	if floor := time.Duration(stripes*f.Layout().FrameSize()) * time.Second / rate; took < floor {
		t.Errorf("%d exchanged frames crossed a %d B/s link in %v, under the %v it takes", stripes, rate, took, floor)
	}
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
}

// TestRepairSiteExchangeChargesTheHolder: the exchange's write-back is
// charged on the link from a member that held the block, never from the
// blank target. Site 0 is the target, site 1 holds only checks and site 2
// has lost data block 0 everywhere, with the 0–1 link capped. Site 1's
// data blocks go home from site 2, which held them (block 0, which no
// member held, from site 2 too: the first linked member other than the
// target), so only the target's own exchanged block 0 of each stripe
// crosses the capped link. Charged from the first linked member, site 1's
// blocks crossed it from site 0 as well: 2.15 s.
func TestRepairSiteExchangeChargesTheHolder(t *testing.T) {
	w := chaos.NewWAN(chaos.WANConfig{Sites: 3})
	f, _, _, stripes := damagedFederation(t, Config{WAN: w}, func(sites []site) {
		wipeSite(sites[0])
		for node := 0; node < sites[1].store.Layout().DataNodes; node++ {
			sites[1].inj.LoseNode(node)
		}
		sites[2].inj.LoseNode(0)
	})
	const rate = 4_000 // bytes/s
	w.LimitLink(0, 1, rate)
	t0 := time.Now()
	rep, err := f.RepairSiteCtx(ctx, 0)
	took := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExchangedStripes != stripes || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Fatalf("report %+v, want all %d stripes exchanged and no residue", rep, stripes)
	}
	floor := time.Duration(stripes*f.Layout().FrameSize()) * time.Second / rate
	if took < floor || took > 3*floor {
		t.Errorf("repair took %v over a %d B/s link, want about the %v the target's %d exchanged frames take", took, rate, floor, stripes)
	}
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
}

// refusingBackend refuses every write to node while refuse is set, yet still
// answers for the node's media: a drive that fails as it is written.
type refusingBackend struct {
	archive.Backend
	node   int
	refuse *atomic.Bool
}

func (b refusingBackend) Write(ctx context.Context, node int, key, data []byte) error {
	if node == b.node && b.refuse.Load() {
		return fmt.Errorf("node %d refuses the write", node)
	}
	return b.Backend.Write(ctx, node, key, data)
}

// TestRepairSiteRefusedExchangedWrite: a block the joint exchange supplied is
// no direct import, written or not. Every donor has lost data block 0, so
// each stripe is exchanged for it, and the target's drive 0 answers for its
// media but refuses the write: the report counts the single donors' blocks
// as the imports and leaves block 0 of each stripe to the residue.
func TestRepairSiteRefusedExchangedWrite(t *testing.T) {
	var refuse atomic.Bool
	f, sites, stripes := federation3(t, Config{}, func(i int, b archive.Backend) archive.Backend {
		if i == 0 {
			return refusingBackend{b, 0, &refuse}
		}
		return b
	})
	wipeSite(sites[0])
	sites[1].inj.LoseNode(0)
	sites[2].inj.LoseNode(0)
	refuse.Store(true)
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, n := range liveBlocks(sites[0].store) {
		live += n
	}
	if rep.ExchangedStripes != stripes || rep.DirectImports != live-stripes || rep.Exchange.BlocksWritten != live-stripes ||
		rep.MissingAfter != stripes || rep.Unrecoverable != 0 {
		t.Errorf("report %+v, want %d stripes exchanged, the other %d live data blocks imported and block 0 of each stripe missing", rep, stripes, live-stripes)
	}
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
}

// TestRepairSiteCutOffTargetExchangesNothing: a target with no up link to a
// donor can be written nothing, so the joint exchange does not start — no
// block is read for stripes that could never go home, no stripe counts as
// exchanged — and every stripe is left to the residue.
func TestRepairSiteCutOffTargetExchangesNothing(t *testing.T) {
	w := chaos.NewWAN(chaos.WANConfig{Sites: 3})
	f, _, _, stripes := wipedFederation(t, Config{WAN: w})
	w.Partition(0, 1)
	w.Partition(0, 2)
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExchangedStripes != 0 || !rep.Exchange.Zero() || rep.Unrecoverable != stripes {
		t.Errorf("report %+v, want no exchange and all %d stripes unrecoverable", rep, stripes)
	}
	if got := f.Metrics().Counter("fedstore.exchange.stripes").Value(); got != 0 {
		t.Errorf("fedstore.exchange.stripes = %d, want 0", got)
	}
}
