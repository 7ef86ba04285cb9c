// Package soak runs randomized, seeded chaos campaigns against the archive
// data path end to end: a deterministic mix of Put/Get/Scrub and
// device-failure/replacement operations executes over a fault-injecting
// backend (tornado/internal/chaos), and the run enforces the archival
// invariant the whole system exists for — every Get returns bit-exact data
// or a definitive error, never silent corruption — then quiesces the
// injector and verifies that a repair scrub converges the store back to
// zero missing blocks and zero outstanding corruption.
//
// Campaigns are fully deterministic: the same Config (including Seed)
// produces the identical fault schedule, operation mix, and Report,
// fingerprint included.
package soak

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/maid"
	"tornado/internal/obs"
)

// Config tunes one campaign. The zero value is usable: Defaults fills in a
// moderate-rate schedule over a 32-node array-backed store.
type Config struct {
	// Seed drives the operation mix, the payload bytes, the graph draw,
	// and (via chaos.Config) the fault schedule.
	Seed uint64
	// Ops is the campaign length in operations. Default 400.
	Ops int
	// TotalNodes sizes the tornado graph (data nodes = TotalNodes/2).
	// Default 48: 32-node graphs routinely carry closed 4-node data sets
	// that defect screening cannot repair away at that size, and a
	// two-device outage plus scattered bit rot completes them often
	// enough to make convergence a coin flip.
	TotalNodes int
	// BlockSize is the stripe block size. Default 64.
	BlockSize int
	// MaxObjectSize bounds Put payloads. Default 4096.
	MaxObjectSize int
	// MAID selects the power-managed shelf backend instead of the plain
	// device array; MaxOn is its spin budget (default TotalNodes/2).
	MAID  bool
	MaxOn int
	// Faults is the injection schedule; Seed and Metrics are overridden.
	// The zero value gets DefaultFaults.
	Faults chaos.Config
	// MaxFailedDevices caps simultaneous real device failures (contents
	// destroyed until replaced). Default 2.
	MaxFailedDevices int
	// ScrubEvery forces a repair scrub every N ops so damage cannot
	// accumulate past the graph's tolerance. Default 32.
	ScrubEvery int
	// Log, when non-nil, receives verbose per-op commentary.
	Log io.Writer
}

// DefaultFaults is the moderate-rate schedule campaigns use when
// Config.Faults is zero: every fault class active, low enough that stripes
// stay recoverable between scrubs.
func DefaultFaults() chaos.Config {
	return chaos.Config{
		BitFlipRate:     0.008,
		ReadCorruptRate: 0.008,
		TruncateRate:    0.004,
		TornWriteRate:   0.004,
		ReadErrRate:     0.020,
		WriteErrRate:    0.010,
		NodeLossRate:    0.0015,
		MaxLostNodes:    1,
		FlapRate:        0.004,
		FlapWindow:      16,
	}
}

// Report is one campaign's outcome and the evidence for its invariants.
type Report struct {
	Seed uint64

	// Operation mix. RejectedPuts are writes the store refused with
	// ErrDegraded because too many devices were down to meet the
	// durability floor — refusal, not silent under-replication.
	Ops, Puts, RejectedPuts, Gets, Scrubs, DeviceFails, DeviceReplacements int

	// Get outcomes. DataLossGets are definitive ErrDataLoss errors —
	// acceptable under heavy injected loss. SilentCorruptions are Gets
	// that returned wrong bytes without an error — the unforgivable
	// failure; Check requires zero.
	DataLossGets      int
	SilentCorruptions int

	// Fault-injection accounting.
	Injected         map[string]int64 // per chaos class
	ServedCorrupt    int64            // corrupt frames handed to the archive
	DetectedCorrupt  int64            // corrupt frames the archive detected
	VoidedCorrupt    int64            // at-rest corruptions destroyed before detection
	ReadRepairs      int64
	ScrubRepairs     int64
	QuarantineEvents int64

	// Post-campaign convergence (after Quiesce + RestoreAll + repair
	// scrub): OutstandingAfter and FinalMissing must be zero, and every
	// object must verify bit-exact (FinalVerifyFailures counts the ones
	// that did not — wrong bytes or any error, since after quiesce there
	// is no excuse left).
	OutstandingAfter    int
	FinalMissing        int
	FinalUnrecoverable  int
	VerifiedObjects     int
	FinalVerifyFailures int
	// FinalMissingByNode breaks FinalMissing down per node — the
	// diagnostic that separates "scattered bit rot" from "these exact
	// devices never came back".
	FinalMissingByNode map[int]int

	// Fingerprint hashes the full operation/outcome log: two runs of the
	// same Config are identical iff their fingerprints match.
	Fingerprint string
}

// Check enforces the end-to-end soak invariants, returning nil when the
// campaign upheld all of them.
func (r Report) Check() error {
	switch {
	case r.SilentCorruptions != 0:
		return fmt.Errorf("soak: %d silent corruptions (seed %d)", r.SilentCorruptions, r.Seed)
	case r.FinalVerifyFailures != 0:
		return fmt.Errorf("soak: %d objects failed post-quiesce verification (seed %d)",
			r.FinalVerifyFailures, r.Seed)
	case r.DetectedCorrupt != r.ServedCorrupt:
		return fmt.Errorf("soak: detected %d corrupt frames but injector served %d (seed %d)",
			r.DetectedCorrupt, r.ServedCorrupt, r.Seed)
	case r.OutstandingAfter != 0:
		return fmt.Errorf("soak: %d corruptions outstanding after repair scrub (seed %d)",
			r.OutstandingAfter, r.Seed)
	case r.FinalMissing != 0:
		return fmt.Errorf("soak: %d blocks missing after repair scrub (seed %d)", r.FinalMissing, r.Seed)
	case r.FinalUnrecoverable != 0:
		return fmt.Errorf("soak: %d stripes unrecoverable at campaign end (seed %d)",
			r.FinalUnrecoverable, r.Seed)
	}
	return nil
}

// RunCtx executes one seeded campaign and returns its Report. An error
// means the harness itself failed (bad config, unexpected store error) —
// invariant violations are reported via Report.Check, not the error. The
// campaign checks ctx between operations and aborts with the context's
// error. Cancellation does not perturb the schedule — a run that completes
// produces the same Report and fingerprint whatever context it was given.
func RunCtx(ctx context.Context, cfg Config) (Report, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.TotalNodes <= 0 {
		cfg.TotalNodes = 48
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 64
	}
	if cfg.MaxObjectSize <= 0 {
		cfg.MaxObjectSize = 4096
	}
	if cfg.MaxOn <= 0 {
		cfg.MaxOn = cfg.TotalNodes / 2
	}
	if cfg.MaxFailedDevices <= 0 {
		cfg.MaxFailedDevices = 2
	}
	if cfg.ScrubEvery <= 0 {
		cfg.ScrubEvery = 32
	}
	zero := chaos.Config{}
	if cfg.Faults == zero {
		cfg.Faults = DefaultFaults()
	}

	rep := Report{Seed: cfg.Seed, Ops: cfg.Ops}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	fp := sha256.New()
	note := func(format string, args ...any) {
		fmt.Fprintf(fp, format+"\n", args...)
	}

	// Deterministic stack: graph, devices, backend, injector, store.
	params := core.DefaultParams()
	params.TotalNodes = cfg.TotalNodes
	g, _, err := core.Generate(params, rand.New(rand.NewPCG(cfg.Seed, 11)))
	if err != nil {
		return rep, fmt.Errorf("soak: graph: %w", err)
	}
	reg := obs.NewRegistry()
	devs := device.NewArray(g.Total)
	var inner archive.Backend
	if cfg.MAID {
		shelf, err := maid.NewShelf(devs, cfg.MaxOn)
		if err != nil {
			return rep, fmt.Errorf("soak: shelf: %w", err)
		}
		inner = maid.NewStoreBackend(shelf)
	} else {
		inner = archive.NewArrayBackend(devs)
	}
	faults := cfg.Faults
	faults.Seed = cfg.Seed
	faults.Metrics = reg
	inj := chaos.Wrap(inner, faults)
	store, err := archive.NewWithBackend(g, inj, archive.Config{
		BlockSize: cfg.BlockSize,
		Metrics:   reg,
		// A node needs a few detections between scrub passes (which reset
		// clean nodes' counts) before it is worth benching; 3 is too
		// trigger-happy when corruption is spread evenly, not node-local.
		QuarantineThreshold: 5,
		// Refuse writes that would be born more than 3 blocks below full
		// strength — an archive ingesting during a multi-device outage is
		// how stripes start life already near their failure point.
		MaxPutFailures: 3,
	})
	if err != nil {
		return rep, fmt.Errorf("soak: store: %w", err)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 13))
	golden := map[string][]byte{}
	var names []string
	var failed []int

	put := func(i int) error {
		name := fmt.Sprintf("obj-%04d", len(names))
		size := 1 + rng.IntN(cfg.MaxObjectSize)
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(rng.IntN(256))
		}
		if err := store.PutCtx(ctx, name, data); err != nil {
			if errors.Is(err, archive.ErrDegraded) {
				rep.RejectedPuts++
				note("op %d put %s rejected", i, name)
				return nil
			}
			return fmt.Errorf("soak: put %s: %w", name, err)
		}
		golden[name] = data
		names = append(names, name)
		rep.Puts++
		note("op %d put %s %d", i, name, size)
		return nil
	}
	get := func(i int) error {
		name := names[rng.IntN(len(names))]
		got, stats, err := store.GetCtx(ctx, name)
		rep.Gets++
		switch {
		case err == nil && bytes.Equal(got, golden[name]):
			note("op %d get %s ok read=%d corrupt=%d repair=%d", i, name,
				stats.BlocksRead, stats.CorruptBlocks, stats.ReadRepairs)
		case err == nil:
			rep.SilentCorruptions++
			note("op %d get %s SILENT", i, name)
			logf("op %d: SILENT CORRUPTION on %s", i, name)
		case errors.Is(err, archive.ErrDataLoss):
			rep.DataLossGets++
			note("op %d get %s dataloss", i, name)
		default:
			return fmt.Errorf("soak: get %s: %w", name, err)
		}
		return nil
	}
	scrub := func(i int) error {
		srep, err := store.ScrubCtx(ctx, true)
		if err != nil {
			return fmt.Errorf("soak: scrub: %w", err)
		}
		rep.Scrubs++
		note("op %d scrub repaired=%d corrupt=%d unrecov=%d", i,
			srep.BlocksRepaired, srep.CorruptFrames, srep.Unrecoverable)
		return nil
	}

	// Seed the store so early Gets have something to read.
	for i := 0; i < 3; i++ {
		if err := put(-1); err != nil {
			return rep, err
		}
	}

	for i := 0; i < cfg.Ops; i++ {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("soak: cancelled at op %d: %w", i, err)
		}
		if cfg.ScrubEvery > 0 && i > 0 && i%cfg.ScrubEvery == 0 {
			if err := scrub(i); err != nil {
				return rep, err
			}
		}
		switch roll := rng.Float64(); {
		case roll < 0.18:
			if err := put(i); err != nil {
				return rep, err
			}
		case roll < 0.88:
			if err := get(i); err != nil {
				return rep, err
			}
		case roll < 0.93:
			if err := scrub(i); err != nil {
				return rep, err
			}
		case roll < 0.95:
			// A real device dies: contents destroyed. The injector's
			// bookkeeping for that node is voided — those corruptions can
			// never be detected.
			if len(failed) >= cfg.MaxFailedDevices {
				note("op %d fail skipped", i)
				continue
			}
			id := rng.IntN(len(devs))
			if devs[id].State() == device.Failed {
				note("op %d fail dup %d", i, id)
				continue
			}
			devs[id].Fail()
			inj.VoidNode(id)
			failed = append(failed, id)
			rep.DeviceFails++
			note("op %d fail %d", i, id)
			logf("op %d: device %d failed", i, id)
		default:
			// Replace the oldest failed device with a blank drive; the
			// next repair scrub repopulates it. Replacement is rolled more
			// often than failure (5% vs 2%): a dead device is a hole in
			// every stripe, and the longer two holes overlap the likelier
			// the next fault completes one of the graph's small
			// first-failure patterns.
			if len(failed) == 0 {
				note("op %d replace skipped", i)
				continue
			}
			id := failed[0]
			failed = failed[1:]
			devs[id].Replace()
			store.ClearQuarantine(id)
			rep.DeviceReplacements++
			note("op %d replace %d", i, id)
			logf("op %d: device %d replaced", i, id)
			// Rebuild-on-replace: a blank drive is a hole in every stripe
			// until repopulated, and holes on replaced-but-unrebuilt drives
			// are NOT counted by MaxFailedDevices — without an immediate
			// rebuild, churn can stack enough blanks to complete one of the
			// graph's first-failure patterns and freeze the whole store.
			if err := scrub(i); err != nil {
				return rep, err
			}
		}
	}

	// Convergence: quiesce injection, restore injected availability loss,
	// replace destroyed devices, readmit quarantined nodes, then repair.
	inj.Quiesce()
	inj.RestoreAll()
	for _, id := range failed {
		devs[id].Replace()
		rep.DeviceReplacements++
	}
	for _, node := range store.Quarantined() {
		store.ClearQuarantine(node)
	}
	if _, err := store.ScrubCtx(ctx, true); err != nil {
		return rep, fmt.Errorf("soak: convergence scrub: %w", err)
	}
	final, err := store.ScrubCtx(ctx, false)
	if err != nil {
		return rep, fmt.Errorf("soak: final scrub: %w", err)
	}
	rep.FinalMissingByNode = map[int]int{}
	for _, h := range final.Stripes {
		rep.FinalMissing += len(h.Missing)
		for _, node := range h.Missing {
			rep.FinalMissingByNode[node]++
		}
		if !h.Recoverable {
			rep.FinalUnrecoverable++
		}
	}
	for _, name := range names {
		got, _, err := store.GetCtx(ctx, name)
		if err != nil || !bytes.Equal(got, golden[name]) {
			rep.FinalVerifyFailures++ // post-quiesce, even an error is a violation
			note("final get %s BAD", name)
			continue
		}
		rep.VerifiedObjects++
	}

	rep.Injected = inj.InjectedTotals()
	rep.ServedCorrupt = inj.ServedCorrupt()
	rep.DetectedCorrupt = reg.Counter("archive.detected.corrupt_frames").Value()
	rep.VoidedCorrupt = reg.Counter("chaos.voided_corruptions").Value()
	rep.ReadRepairs = reg.Counter("archive.read_repair.blocks").Value()
	rep.ScrubRepairs = reg.Counter("archive.scrub.blocks_repaired").Value()
	rep.QuarantineEvents = reg.Counter("archive.quarantine.events").Value()
	rep.OutstandingAfter = inj.Outstanding()

	note("served=%d detected=%d voided=%d missing=%d", rep.ServedCorrupt,
		rep.DetectedCorrupt, rep.VoidedCorrupt, rep.FinalMissing)
	rep.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	logf("campaign seed %d: %d puts, %d gets (%d dataloss), %d scrubs, served=%d detected=%d, fingerprint %.12s",
		cfg.Seed, rep.Puts, rep.Gets, rep.DataLossGets, rep.Scrubs,
		rep.ServedCorrupt, rep.DetectedCorrupt, rep.Fingerprint)
	return rep, nil
}
