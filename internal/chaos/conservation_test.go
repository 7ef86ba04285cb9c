package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/device"
	"tornado/internal/obs"
	"tornado/internal/repairbw"
)

// countingBackend sits between the store and the injector and counts every
// byte that actually crosses the boundary on successful operations — the
// ground truth the repair meter's attribution must conserve against.
type countingBackend struct {
	inner archive.Backend

	mu         sync.Mutex
	readOps    int64
	readBytes  int64
	writeOps   int64
	writeBytes int64
}

type trafficSnap struct {
	readOps, readBytes, writeOps, writeBytes int64
}

func (c *countingBackend) snap() trafficSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return trafficSnap{c.readOps, c.readBytes, c.writeOps, c.writeBytes}
}

func (s trafficSnap) sub(prev trafficSnap) trafficSnap {
	return trafficSnap{
		readOps:    s.readOps - prev.readOps,
		readBytes:  s.readBytes - prev.readBytes,
		writeOps:   s.writeOps - prev.writeOps,
		writeBytes: s.writeBytes - prev.writeBytes,
	}
}

func (c *countingBackend) Nodes() int { return c.inner.Nodes() }

func (c *countingBackend) Available(node int, key []byte) bool {
	return c.inner.Available(node, key)
}

// MediaEpoch is the inner backend's: the shim fakes no unavailability.
func (c *countingBackend) MediaEpoch(node int) (uint64, bool) {
	return c.inner.MediaEpoch(node)
}

func (c *countingBackend) Read(ctx context.Context, node int, key []byte) ([]byte, error) {
	return c.ReadInto(ctx, node, key, nil)
}

func (c *countingBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	b, err := archive.ReaderIntoOf(c.inner).ReadInto(ctx, node, key, dst)
	if err == nil {
		c.mu.Lock()
		c.readOps++
		c.readBytes += int64(len(b))
		c.mu.Unlock()
	}
	return b, err
}

func (c *countingBackend) Write(ctx context.Context, node int, key []byte, data []byte) error {
	err := c.inner.Write(ctx, node, key, data)
	if err == nil {
		c.mu.Lock()
		c.writeOps++
		c.writeBytes += int64(len(data))
		c.mu.Unlock()
	}
	return err
}

func (c *countingBackend) Delete(ctx context.Context, node int, key []byte) error {
	return c.inner.Delete(ctx, node, key)
}

func (c *countingBackend) Cost(node int) float64 { return c.inner.Cost(node) }

// meterSnap snapshots every cause's totals so phases can diff them.
func meterSnap(m *repairbw.Meter) map[repairbw.Cause]repairbw.CostReport {
	out := map[repairbw.Cause]repairbw.CostReport{}
	for c := repairbw.Cause(0); c < repairbw.NumCauses; c++ {
		out[c] = m.Totals(c)
	}
	return out
}

func meterDelta(m *repairbw.Meter, prev map[repairbw.Cause]repairbw.CostReport, c repairbw.Cause) repairbw.CostReport {
	cur := m.Totals(c)
	old := prev[c]
	return repairbw.CostReport{
		BlocksRead:    cur.BlocksRead - old.BlocksRead,
		BlocksWritten: cur.BlocksWritten - old.BlocksWritten,
		BytesRead:     cur.BytesRead - old.BytesRead,
		BytesWritten:  cur.BytesWritten - old.BytesWritten,
	}
}

// TestSoakConservation is the repair-traffic conservation law, checked
// against a chaos-soaked store: every byte the backend actually serves is
// either the information-theoretic decode floor (one full frame per live
// data block — data the payload reaches, not zero padding — of every
// successfully decoded stripe) or attributed by the repair meter to a
// cause — nothing leaks, nothing is double-counted. The test runs under
// -race in CI's chaos-soak job, so the meter's and shim's concurrency
// story is exercised too.
func TestSoakConservation(t *testing.T) {
	g := testGraph(t) // 32 nodes, 16 data
	const blockSize = 64

	reg := obs.NewRegistry()
	devs := device.NewArray(g.Total)
	inj := Wrap(archive.NewArrayBackend(devs), Config{
		Seed: 2006,
		// Damage classes only — no node loss or flapping, so every Get in
		// the degraded phase still succeeds and the decode floor is exact.
		BitFlipRate:     0.004,
		ReadCorruptRate: 0.01,
		TruncateRate:    0.002,
		TornWriteRate:   0.002,
		ReadErrRate:     0.02,
		WriteErrRate:    0.01,
		Metrics:         reg,
	})
	shim := &countingBackend{inner: inj}
	store, err := archive.NewWithBackend(g, shim, archive.Config{
		BlockSize: blockSize,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	meter := store.RepairMeter()
	frameSize := int64(store.FrameSize())
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(2006, 1))

	// Phase 1: ingest. Puts are data-path writes, not repair traffic — the
	// meter must not move at all.
	preIngest := meterSnap(meter)
	golden := map[string][]byte{}
	var names []string
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		data := payload(1+rng.IntN(3*g.Data*blockSize), uint64(i))
		if err := store.PutCtx(ctx, name, data); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		golden[name] = data
		names = append(names, name)
	}
	for c := repairbw.Cause(0); c < repairbw.NumCauses; c++ {
		if d := meterDelta(meter, preIngest, c); d != (repairbw.CostReport{}) {
			t.Fatalf("ingest moved the %v meter: %+v", c, d)
		}
	}

	// Phase 2: degraded reads. Seed extra at-rest corruption, then Get
	// every object several times. Each successful stripe decode consumed at
	// least one full frame per live data block (the floor); everything
	// beyond the floor is DegradedGet surplus, and each write-back is
	// ReadRepair. Conservation:
	//
	//	shim reads  == floorBlocks*frameSize + DegradedGet.BytesRead
	//	shim writes == ReadRepair.BytesWritten
	capacity := g.Data * blockSize
	stripesOf := func(name string) int {
		n := len(golden[name])
		st := (n + capacity - 1) / capacity
		if st == 0 {
			st = 1
		}
		return st
	}
	// liveOf is the floor of one Get of name: the data blocks its stripes'
	// payloads fill.
	liveOf := func(name string) int {
		n := len(golden[name])
		live := 0
		for st := range stripesOf(name) {
			live += (min(n-st*capacity, capacity) + blockSize - 1) / blockSize
		}
		return live
	}
	for i := 0; i < 10; i++ {
		name := names[rng.IntN(len(names))]
		st := rng.IntN(stripesOf(name))
		node := rng.IntN(g.Total)
		// Ignore errors: the frame may be missing (torn write) — the point
		// is just extra scattered damage.
		_ = inj.CorruptStored(node, fmt.Sprintf("%s/%d/%d", name, st, node))
	}
	preGet := meterSnap(meter)
	preGetTraffic := shim.snap()
	floorBlocks := 0
	for round := 0; round < 3; round++ {
		for _, name := range names {
			got, _, err := store.GetCtx(ctx, name)
			if err != nil {
				t.Fatalf("get %s: %v", name, err)
			}
			if !bytes.Equal(got, golden[name]) {
				t.Fatalf("get %s: wrong bytes", name)
			}
			floorBlocks += liveOf(name)
		}
	}
	getTraffic := shim.snap().sub(preGetTraffic)
	dg := meterDelta(meter, preGet, repairbw.DegradedGet)
	rr := meterDelta(meter, preGet, repairbw.ReadRepair)
	if want := int64(floorBlocks)*frameSize + dg.BytesRead; getTraffic.readBytes != want {
		t.Errorf("get-phase read bytes: shim saw %d, floor+meter account %d (floor %d blocks, surplus %d)",
			getTraffic.readBytes, want, floorBlocks, dg.BytesRead)
	}
	if want := int64(floorBlocks) + int64(dg.BlocksRead); getTraffic.readOps != want {
		t.Errorf("get-phase read blocks: shim saw %d, floor+meter account %d", getTraffic.readOps, want)
	}
	if getTraffic.writeBytes != rr.BytesWritten {
		t.Errorf("get-phase write bytes: shim saw %d, read-repair metered %d", getTraffic.writeBytes, rr.BytesWritten)
	}
	if getTraffic.writeOps != int64(rr.BlocksWritten) {
		t.Errorf("get-phase write blocks: shim saw %d, read-repair metered %d", getTraffic.writeOps, rr.BlocksWritten)
	}
	if dg.BytesRead < 0 || dg.BlocksRead < 0 {
		t.Errorf("negative degraded-get surplus: %+v", dg)
	}
	// The schedule is seeded, so the degraded machinery deterministically
	// fires; a zero here means the phase silently stopped testing anything.
	if dg.BytesRead == 0 {
		t.Error("degraded-get surplus is zero — corruption schedule did not degrade any read")
	}
	if rr.BlocksWritten == 0 {
		t.Error("no read-repair write-backs — corruption schedule did not trigger repair")
	}

	// Phase 3: repair scrub. Scrub owns every byte it moves, read and
	// write alike, so the shim deltas must equal the Scrub meter exactly.
	preScrub := meterSnap(meter)
	preScrubTraffic := shim.snap()
	if _, err := store.ScrubCtx(ctx, true); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	scrubTraffic := shim.snap().sub(preScrubTraffic)
	sc := meterDelta(meter, preScrub, repairbw.Scrub)
	if scrubTraffic.readBytes != sc.BytesRead || scrubTraffic.readOps != int64(sc.BlocksRead) {
		t.Errorf("scrub reads: shim saw %d blocks/%d bytes, meter %d blocks/%d bytes",
			scrubTraffic.readOps, scrubTraffic.readBytes, sc.BlocksRead, sc.BytesRead)
	}
	if scrubTraffic.writeBytes != sc.BytesWritten || scrubTraffic.writeOps != int64(sc.BlocksWritten) {
		t.Errorf("scrub writes: shim saw %d blocks/%d bytes, meter %d blocks/%d bytes",
			scrubTraffic.writeOps, scrubTraffic.writeBytes, sc.BlocksWritten, sc.BytesWritten)
	}

	// Phase 4: unrecoverable read. Corrupt every frame of a one-stripe
	// object; the Get fails and the failed path attributes ALL bytes it
	// read to DegradedGet — no decode floor, since nothing decoded.
	inj.Quiesce()
	doomed := "doomed"
	if err := store.PutCtx(ctx, doomed, payload(capacity/2, 99)); err != nil {
		t.Fatalf("put %s: %v", doomed, err)
	}
	for node := 0; node < g.Total; node++ {
		if err := inj.CorruptStored(node, fmt.Sprintf("%s/0/%d", doomed, node)); err != nil {
			t.Fatalf("corrupt %s node %d: %v", doomed, node, err)
		}
	}
	preFail := meterSnap(meter)
	preFailTraffic := shim.snap()
	if _, _, err := store.GetCtx(ctx, doomed); !errors.Is(err, archive.ErrDataLoss) {
		t.Fatalf("get %s: want ErrDataLoss, got %v", doomed, err)
	}
	failTraffic := shim.snap().sub(preFailTraffic)
	fdg := meterDelta(meter, preFail, repairbw.DegradedGet)
	if failTraffic.readBytes != fdg.BytesRead || failTraffic.readOps != int64(fdg.BlocksRead) {
		t.Errorf("failed get: shim saw %d blocks/%d bytes, meter attributed %d blocks/%d bytes",
			failTraffic.readOps, failTraffic.readBytes, fdg.BlocksRead, fdg.BytesRead)
	}
	if failTraffic.readBytes == 0 {
		t.Error("failed get read nothing — the unrecoverable path was not exercised")
	}

	// Federation stayed idle throughout: no block-exchange traffic ran.
	if d := meter.Totals(repairbw.Federation); d != (repairbw.CostReport{}) {
		t.Errorf("federation meter moved without block exchange: %+v", d)
	}
}
