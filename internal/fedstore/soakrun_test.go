// The disaster campaign for the federated store, run by the TestDisasterSoak
// tests: a seeded, deterministic end-to-end drill that builds an N-site
// federation (each site its own Tornado graph, device array, and chaos
// injector), loads it,
// then destroys one whole site — media wiped, WAN-unreachable — while the
// survivors take concurrent node-level chaos and a mid-storm WAN brownout.
// Throughout the storm every read must be bit-exact or a definitive error.
// After the storm the run quiesces node chaos, verifies the survivors
// converge to zero missing blocks on their own, restores the lost site
// through RepairSite, and enforces the federation invariants: zero residue
// at every site, every object bit-exact from every site individually, and
// exact conservation of repair bytes — the facade's own exchange tally must
// equal the sites' federation-cause meters byte for byte.
//
// Campaigns are fully deterministic: the same SoakConfig (including Seed)
// produces the identical fault schedule, operation mix, and SoakReport,
// fingerprint included.

package fedstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
	"tornado/internal/obs"
	"tornado/internal/repairbw"
)

// SoakConfig tunes one disaster campaign. The zero value is usable:
// defaults give a 3-site federation of 48-node graphs under moderate
// survivor-side fault rates.
type SoakConfig struct {
	// Seed drives the graph draws, the operation mix, the payloads, the
	// victim choice, and (via chaos.Config and WANConfig) every fault.
	Seed uint64
	// Sites is the federation size (>= 2). Default 3.
	Sites int
	// Ops is the storm length in facade operations. Default 240.
	Ops int
	// TotalNodes sizes each site's tornado graph. Default 48.
	TotalNodes int
	// BlockSize is the stripe block size. Default 64.
	BlockSize int
	// MaxObjectSize bounds Put payloads. Default 2048.
	MaxObjectSize int
	// Objects is how many objects the load phase stores before the
	// disaster. Default 6.
	Objects int
	// Faults is the per-site node-level schedule (Seed and Metrics are
	// overridden per site). The zero value gets DefaultSurvivorFaults.
	Faults chaos.Config
	// SiteFlapRate feeds the WAN's rate-based site flapping (negative
	// disables; zero gets the 0.004 default). FlapWindow defaults to 6.
	SiteFlapRate float64
	FlapWindow   int
	// ScrubEvery forces a federation scrub every N storm ops. Default 48.
	ScrubEvery int
	// Log, when non-nil, receives verbose per-phase commentary.
	Log io.Writer
}

// DefaultSurvivorFaults is the node-level schedule each site runs when
// SoakConfig.Faults is zero: every fault class active — including the
// latency class, so brownouts compose with slow nodes — at rates low
// enough that a surviving site stays individually recoverable between
// scrubs.
func DefaultSurvivorFaults() chaos.Config {
	return chaos.Config{
		BitFlipRate:     0.006,
		ReadCorruptRate: 0.006,
		TruncateRate:    0.003,
		TornWriteRate:   0.003,
		ReadErrRate:     0.015,
		WriteErrRate:    0.008,
		NodeLossRate:    0.001,
		MaxLostNodes:    1,
		FlapRate:        0.003,
		FlapWindow:      16,
		ReadLatencyRate: 0.002,
		LatencyMin:      20 * time.Microsecond,
		LatencyMax:      100 * time.Microsecond,
	}
}

// SoakReport is one campaign's outcome and the evidence for its invariants.
type SoakReport struct {
	Seed   uint64
	Sites  int
	Victim int // the site the disaster destroyed

	// Storm operation mix. RejectedPuts are writes refused with
	// ErrSiteQuorum — graceful degradation refusing to under-replicate,
	// never silent acceptance.
	Ops, Puts, RejectedPuts, Gets, Scrubs int
	// Acceptable storm read outcomes: definitive data-loss errors and
	// no-reachable-site errors. SilentCorruptions are Gets that returned
	// wrong bytes without an error — Check requires zero.
	DataLossGets      int
	NoSiteGets        int
	SilentCorruptions int

	// Fault accounting: node-level injections summed across sites, and the
	// WAN's site-scale injections.
	Injected    map[string]int64
	WANInjected map[string]int64

	// Post-storm convergence at the survivors (victim still dark): after
	// quiesce and repair scrubs both must be zero — the survivors owe the
	// victim a clean donor set before cross-site repair begins.
	SurvivorMissingAfterQuiesce int
	OutstandingAfterQuiesce     int

	// Repair is the victim's RepairSite outcome. SurvivorShellsSynced and
	// SurvivorImports capture the follow-up repairs that backfill objects
	// a survivor missed while flapping.
	Repair               RepairReport
	SurvivorShellsSynced int
	SurvivorImports      int

	// Conservation over the whole restore phase: the facade's own exchange
	// tally against the sites' federation-cause repair meters. Check
	// requires exact equality — every cross-site byte attributed, none
	// invented.
	RestoreExchange   repairbw.CostReport
	RestoreFederation repairbw.CostReport

	// Federation-wide residue after restore; both must be zero.
	FinalMissing       int
	FinalUnrecoverable int
	// VictimMissing and VictimUnrecoverable are the part of it the final
	// scrub found at the victim. Survivor repairs write nothing there, so
	// Check requires them to equal the residue Repair reported.
	VictimMissing       int
	VictimUnrecoverable int

	// Final verification: every object read back from every site
	// individually (VerifiedReads counts site×object successes), then the
	// whole namespace re-read through the facade concurrently.
	VerifiedReads            int
	FinalVerifyFailures      int
	ConcurrentVerifyFailures int

	// Fingerprint hashes the full operation/outcome log: two runs of the
	// same SoakConfig are identical iff their fingerprints match.
	Fingerprint string
}

// Check enforces the disaster-recovery invariants, returning nil when the
// campaign upheld all of them.
func (r SoakReport) Check() error {
	switch {
	case r.SilentCorruptions != 0:
		return fmt.Errorf("fedstore soak: %d silent corruptions during the storm (seed %d)",
			r.SilentCorruptions, r.Seed)
	case r.OutstandingAfterQuiesce != 0:
		return fmt.Errorf("fedstore soak: %d corruptions outstanding at survivors after quiesce (seed %d)",
			r.OutstandingAfterQuiesce, r.Seed)
	case r.SurvivorMissingAfterQuiesce != 0:
		return fmt.Errorf("fedstore soak: %d blocks missing at survivors after quiesce (seed %d)",
			r.SurvivorMissingAfterQuiesce, r.Seed)
	case r.Repair.MissingAfter != 0 || r.Repair.Unrecoverable != 0:
		return fmt.Errorf("fedstore soak: victim residue missing=%d unrecoverable=%d (seed %d)",
			r.Repair.MissingAfter, r.Repair.Unrecoverable, r.Seed)
	case r.Repair.MissingAfter != r.VictimMissing || r.Repair.Unrecoverable != r.VictimUnrecoverable:
		return fmt.Errorf("fedstore soak: victim repair reported missing=%d unrecoverable=%d, its final scrub found %d and %d (seed %d)",
			r.Repair.MissingAfter, r.Repair.Unrecoverable, r.VictimMissing, r.VictimUnrecoverable, r.Seed)
	case r.Repair.Exchange.Zero():
		return fmt.Errorf("fedstore soak: full site wipe repaired with zero cross-site traffic (seed %d)", r.Seed)
	case r.RestoreExchange != r.RestoreFederation:
		return fmt.Errorf("fedstore soak: conservation violated: facade %+v != site meters %+v (seed %d)",
			r.RestoreExchange, r.RestoreFederation, r.Seed)
	case r.FinalMissing != 0:
		return fmt.Errorf("fedstore soak: %d blocks missing across the federation after restore (seed %d)",
			r.FinalMissing, r.Seed)
	case r.FinalUnrecoverable != 0:
		return fmt.Errorf("fedstore soak: %d stripes unrecoverable after restore (seed %d)",
			r.FinalUnrecoverable, r.Seed)
	case r.FinalVerifyFailures != 0:
		return fmt.Errorf("fedstore soak: %d site×object reads failed post-restore verification (seed %d)",
			r.FinalVerifyFailures, r.Seed)
	case r.ConcurrentVerifyFailures != 0:
		return fmt.Errorf("fedstore soak: %d concurrent facade reads failed post-restore (seed %d)",
			r.ConcurrentVerifyFailures, r.Seed)
	}
	return nil
}

// soakSite is one site's full stack inside a campaign.
type soakSite struct {
	store *archive.Store
	devs  device.Array
	inj   *chaos.Injector
}

// SoakCtx executes one seeded disaster campaign and returns its report. An
// error means the harness itself failed — invariant violations are reported
// via SoakReport.Check, not the error. The campaign checks ctx between
// operations and aborts with the context's error; a run that completes
// produces the same report whatever context was attached.
func SoakCtx(ctx context.Context, cfg SoakConfig) (SoakReport, error) {
	if cfg.Sites < 2 {
		cfg.Sites = 3
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 240
	}
	if cfg.TotalNodes <= 0 {
		cfg.TotalNodes = 48
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 64
	}
	if cfg.MaxObjectSize <= 0 {
		cfg.MaxObjectSize = 2048
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 6
	}
	if cfg.SiteFlapRate == 0 {
		cfg.SiteFlapRate = 0.004
	}
	if cfg.FlapWindow <= 0 {
		cfg.FlapWindow = 6
	}
	if cfg.ScrubEvery <= 0 {
		cfg.ScrubEvery = 48
	}
	zero := chaos.Config{}
	if cfg.Faults == zero {
		cfg.Faults = DefaultSurvivorFaults()
	}

	rep := SoakReport{Seed: cfg.Seed, Sites: cfg.Sites, Ops: cfg.Ops}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	fp := sha256.New()
	note := func(format string, args ...any) {
		fmt.Fprintf(fp, format+"\n", args...)
	}

	// Build: one stack per site — own graph (different seed per site, the
	// complementary-graph deployment of §5.3), own devices, own injector.
	sites := make([]soakSite, cfg.Sites)
	stores := make([]*archive.Store, cfg.Sites)
	params := core.DefaultParams()
	params.TotalNodes = cfg.TotalNodes
	for i := range sites {
		g, _, err := core.Generate(params, rand.New(rand.NewPCG(cfg.Seed, 17+uint64(i))))
		if err != nil {
			return rep, fmt.Errorf("fedstore soak: site %d graph: %w", i, err)
		}
		reg := obs.NewRegistry()
		devs := device.NewArray(g.Total)
		faults := cfg.Faults
		faults.Seed = cfg.Seed + 0x9E3779B9*uint64(i+1)
		faults.Metrics = reg
		inj := chaos.Wrap(archive.NewArrayBackend(devs), faults)
		store, err := archive.NewWithBackend(g, inj, archive.Config{
			BlockSize:           cfg.BlockSize,
			Metrics:             reg,
			QuarantineThreshold: 5,
			MaxPutFailures:      3,
		})
		if err != nil {
			return rep, fmt.Errorf("fedstore soak: site %d store: %w", i, err)
		}
		sites[i] = soakSite{store: store, devs: devs, inj: inj}
		stores[i] = store
	}
	wanRate := cfg.SiteFlapRate
	if wanRate < 0 {
		wanRate = 0
	}
	wan := chaos.NewWAN(chaos.WANConfig{
		Sites:        cfg.Sites,
		Seed:         cfg.Seed ^ 0x57AD,
		SiteFlapRate: wanRate,
		FlapWindow:   cfg.FlapWindow,
	})
	f, err := New(stores, Config{WriteQuorum: cfg.Sites - 1, WAN: wan})
	if err != nil {
		return rep, fmt.Errorf("fedstore soak: facade: %w", err)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 13))
	golden := map[string][]byte{}
	var names []string

	put := func(i int) error {
		name := fmt.Sprintf("obj-%04d", len(names))
		size := 1 + rng.IntN(cfg.MaxObjectSize)
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(rng.IntN(256))
		}
		if err := f.PutCtx(ctx, name, data); err != nil {
			if errors.Is(err, ErrSiteQuorum) {
				rep.RejectedPuts++
				note("op %d put %s quorum-refused", i, name)
				return nil
			}
			return fmt.Errorf("fedstore soak: put %s: %w", name, err)
		}
		golden[name] = data
		names = append(names, name)
		rep.Puts++
		note("op %d put %s %d", i, name, size)
		return nil
	}
	get := func(i int) error {
		name := names[rng.IntN(len(names))]
		got, err := f.GetCtx(ctx, name)
		rep.Gets++
		switch {
		case err == nil && bytes.Equal(got, golden[name]):
			note("op %d get %s ok", i, name)
		case err == nil:
			rep.SilentCorruptions++
			note("op %d get %s SILENT", i, name)
			logf("op %d: SILENT CORRUPTION on %s", i, name)
		case errors.Is(err, archive.ErrDataLoss):
			rep.DataLossGets++
			note("op %d get %s dataloss", i, name)
		case errors.Is(err, ErrNoSite):
			rep.NoSiteGets++
			note("op %d get %s nosite", i, name)
		default:
			return fmt.Errorf("fedstore soak: get %s: %w", name, err)
		}
		return nil
	}
	scrub := func(i int) error {
		reps, err := f.ScrubCtx(ctx, true)
		if err != nil {
			return fmt.Errorf("fedstore soak: scrub: %w", err)
		}
		rep.Scrubs++
		for _, sr := range reps {
			if sr.Skipped {
				note("op %d scrub site %d skipped", i, sr.Site)
				continue
			}
			note("op %d scrub site %d repaired=%d corrupt=%d unrecov=%d", i, sr.Site,
				sr.Report.BlocksRepaired, sr.Report.CorruptFrames, sr.Report.Unrecoverable)
		}
		return nil
	}

	// Load: store the pre-disaster namespace. A flapping site can refuse a
	// put at quorum; retry until the target count is in, bounded so a
	// misconfigured quorum fails the harness instead of spinning.
	for attempt := 1; len(names) < cfg.Objects; attempt++ {
		if attempt > cfg.Objects*40 {
			return rep, fmt.Errorf("fedstore soak: load phase stored %d/%d objects after %d attempts",
				len(names), cfg.Objects, attempt-1)
		}
		if err := put(-attempt); err != nil {
			return rep, err
		}
	}

	// Disaster: one site drawn from the schedule is destroyed — WAN-dark
	// and every device wiped to a blank replacement. The object metadata
	// survives (the steward-database disaster model); the media does not.
	victim := rng.IntN(cfg.Sites)
	rep.Victim = victim
	note("storm victim %d", victim)
	logf("storm: destroying site %d", victim)
	wan.LoseSite(victim)
	for id := range sites[victim].devs {
		sites[victim].devs[id].Fail()
		sites[victim].inj.VoidNode(id)
		sites[victim].devs[id].Replace()
	}
	var survivors []int
	for i := 0; i < cfg.Sites; i++ {
		if i != victim {
			survivors = append(survivors, i)
		}
	}

	// Storm: mixed traffic against the degraded federation, survivors under
	// node-level chaos, plus a mid-storm brownout on a survivor-survivor
	// WAN link so exchange reads cross a slow path.
	for i := 0; i < cfg.Ops; i++ {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("fedstore soak: cancelled at op %d: %w", i, err)
		}
		if i == cfg.Ops/2 && len(survivors) >= 2 {
			wan.BrownoutLink(survivors[0], survivors[1], 200*time.Microsecond)
			note("op %d brownout %d-%d", i, survivors[0], survivors[1])
		}
		if i > 0 && i%cfg.ScrubEvery == 0 {
			if err := scrub(i); err != nil {
				return rep, err
			}
		}
		switch roll := rng.Float64(); {
		case roll < 0.20:
			if err := put(i); err != nil {
				return rep, err
			}
		case roll < 0.92:
			if err := get(i); err != nil {
				return rep, err
			}
		default:
			if err := scrub(i); err != nil {
				return rep, err
			}
		}
	}

	// Quiesce: stop node-level injection everywhere, restore injected
	// availability loss, readmit quarantined nodes, stop WAN flapping. The
	// victim stays dark — first the survivors must converge alone, because
	// they are about to be the victim's donors.
	for i := range sites {
		sites[i].inj.Quiesce()
		sites[i].inj.RestoreAll()
		for _, node := range sites[i].store.Quarantined() {
			sites[i].store.ClearQuarantine(node)
		}
	}
	wan.Quiesce()
	for _, s := range survivors {
		for pass := 0; pass < 2; pass++ {
			if _, err := sites[s].store.ScrubCtx(ctx, true); err != nil {
				return rep, fmt.Errorf("fedstore soak: survivor %d convergence scrub: %w", s, err)
			}
		}
		probe, err := sites[s].store.ScrubCtx(ctx, false)
		if err != nil {
			return rep, fmt.Errorf("fedstore soak: survivor %d probe scrub: %w", s, err)
		}
		for _, h := range probe.Stripes {
			rep.SurvivorMissingAfterQuiesce += len(h.Missing)
		}
		rep.OutstandingAfterQuiesce += sites[s].inj.Outstanding()
	}
	note("quiesce survivors missing=%d outstanding=%d",
		rep.SurvivorMissingAfterQuiesce, rep.OutstandingAfterQuiesce)

	// Restore: the victim comes back online (blank media, surviving
	// metadata) and RepairSite rebuilds it over the WAN; survivors then get
	// their own repair pass to backfill anything they missed while
	// flapping. The conservation delta brackets the whole phase: with
	// chaos quiesced, the facade's exchange tally and the sites'
	// federation-cause meters must move in lockstep.
	wan.RestoreSite(victim)
	wan.HealAll()
	exBefore, sfBefore := f.ExchangeTotals(), f.SiteFederationTotals()
	repV, err := f.RepairSiteCtx(ctx, victim)
	if err != nil {
		return rep, fmt.Errorf("fedstore soak: repair victim %d: %w", victim, err)
	}
	rep.Repair = repV
	note("repair victim shells=%d local=%d imports=%d exchanged=%d missing=%d unrecov=%d",
		repV.ShellsSynced, repV.LocalRepairs, repV.DirectImports, repV.ExchangedStripes,
		repV.MissingAfter, repV.Unrecoverable)
	for _, s := range survivors {
		r, err := f.RepairSiteCtx(ctx, s)
		if err != nil {
			return rep, fmt.Errorf("fedstore soak: repair survivor %d: %w", s, err)
		}
		rep.SurvivorShellsSynced += r.ShellsSynced
		rep.SurvivorImports += r.DirectImports
		note("repair survivor %d shells=%d imports=%d missing=%d", s,
			r.ShellsSynced, r.DirectImports, r.MissingAfter)
	}
	exAfter, sfAfter := f.ExchangeTotals(), f.SiteFederationTotals()
	rep.RestoreExchange = costDelta(exAfter, exBefore)
	rep.RestoreFederation = costDelta(sfAfter, sfBefore)
	note("restore exchange %+v federation %+v", rep.RestoreExchange, rep.RestoreFederation)

	// Final residue and verification: zero missing federation-wide, every
	// object bit-exact from every site individually, then the namespace
	// re-read concurrently through the facade (the -race workout; chaos is
	// quiesced, so outcomes stay deterministic).
	for i := range sites {
		probe, err := sites[i].store.ScrubCtx(ctx, false)
		if err != nil {
			return rep, fmt.Errorf("fedstore soak: final scrub site %d: %w", i, err)
		}
		for _, h := range probe.Stripes {
			rep.FinalMissing += len(h.Missing)
			if !h.Recoverable {
				rep.FinalUnrecoverable++
			}
			if i == victim {
				rep.VictimMissing += len(h.Missing)
				if !h.Recoverable {
					rep.VictimUnrecoverable++
				}
			}
		}
	}
	for _, name := range names {
		for i := range sites {
			got, _, err := sites[i].store.GetCtx(ctx, name)
			if err != nil || !bytes.Equal(got, golden[name]) {
				rep.FinalVerifyFailures++
				note("final get %s site %d BAD", name, i)
				continue
			}
			rep.VerifiedReads++
		}
	}
	const workers = 4
	fails := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := w; idx < len(names); idx += workers {
				got, err := f.GetCtx(ctx, names[idx])
				if err != nil || !bytes.Equal(got, golden[names[idx]]) {
					fails[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	for _, n := range fails {
		rep.ConcurrentVerifyFailures += n
	}

	rep.Injected = map[string]int64{}
	for i := range sites {
		for class, n := range sites[i].inj.InjectedTotals() {
			rep.Injected[class] += n
		}
	}
	rep.WANInjected = wan.InjectedWANTotals()
	for _, class := range chaos.Classes {
		note("injected %s %d", class, rep.Injected[class])
	}
	for _, class := range chaos.WANClasses {
		note("wan %s %d", class, rep.WANInjected[class])
	}
	note("final missing=%d unrecov=%d verified=%d badverify=%d concbad=%d",
		rep.FinalMissing, rep.FinalUnrecoverable, rep.VerifiedReads,
		rep.FinalVerifyFailures, rep.ConcurrentVerifyFailures)
	rep.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	logf("campaign seed %d: victim %d, %d puts (%d refused), %d gets (%d dataloss, %d nosite), restore moved %d bytes, fingerprint %.12s",
		cfg.Seed, victim, rep.Puts, rep.RejectedPuts, rep.Gets, rep.DataLossGets, rep.NoSiteGets,
		rep.RestoreExchange.BytesRead+rep.RestoreExchange.BytesWritten, rep.Fingerprint)
	return rep, nil
}
