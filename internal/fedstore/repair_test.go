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
	f, sites, stripes = federation3(t, cfg, func(_ int, b archive.Backend) archive.Backend {
		cb := &countingBackend{Backend: b}
		counts = append(counts, cb)
		return cb
	})
	wipeSite(sites[0])
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
// federation ends up with the same report and the same bytes on every device.
func TestRepairSiteWidthChangesNothing(t *testing.T) {
	run := func(procs int) (RepairReport, [][]byte) {
		setProcs(t, procs)
		f, sites, _, _ := wipedFederation(t, Config{})
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
	serialRep, serial := run(1)
	wideRep, wide := run(4)
	if serialRep != wideRep {
		t.Errorf("reports differ:\n 1 proc  %+v\n 4 procs %+v", serialRep, wideRep)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Error("device contents differ between one worker and several")
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
// through the joint exchange — after which the site's checks over the
// exchanged data are rebuilt too.
func TestRepairSiteExchangeFallback(t *testing.T) {
	f, sites, _, stripes := wipedFederation(t, Config{})
	sites[1].inj.LoseNode(0)
	sites[2].inj.LoseNode(0)
	rep, err := f.RepairSiteCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExchangedStripes != stripes || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Errorf("report %+v, want %d exchanged stripes and no residue", rep, stripes)
	}
	if got, want := f.ExchangeTotals(), f.SiteFederationTotals(); got != want {
		t.Errorf("conservation: facade %+v != sites %+v", got, want)
	}
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		got, _, err := sites[0].store.GetCtx(ctx, name)
		if err != nil || !bytes.Equal(got, testPayload(400+777*i, uint64(i))) {
			t.Errorf("repaired site get %q: %v", name, err)
		}
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
