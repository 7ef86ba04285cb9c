// wan.go is the site-scale chaos dimension: where Injector wrecks
// individual devices inside one store, WAN wrecks the federation fabric
// between whole sites — site loss, WAN-link partition between site pairs,
// per-link latency brownouts, and site flapping. Like the node injector it
// is seeded and deterministic: all rate-based decisions come from a single
// PCG stream consumed in Step order, and every query method (SiteUp,
// LinkUp, LinkLatency, Transfer) consumes no randomness, so probing the
// topology never perturbs the schedule.
//
// The model: N sites are joined pairwise by symmetric WAN links. A lost or
// flapping site is unreachable to everyone (the facade and every peer). A
// partitioned link blocks only site-to-site exchange between that pair —
// an external client (the fedstore facade) is assumed to have its own
// connectivity to every site. A browned-out link stays up but adds a fixed
// latency to every exchange crossing it. A link may also carry a byte-rate
// cap (LimitLink): not a fault but the link's capacity, so that a repair is
// priced by the bytes it moves and gains nothing from moving them in parallel.
package chaos

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"tornado/internal/obs"
)

// WAN fault classes, as spelled in the chaos.wan.injected.<class> counters.
const (
	WANClassSiteLoss  = "site_loss" // whole site unreachable until RestoreSite
	WANClassSiteFlap  = "site_flap" // site dark for a bounded Step window
	WANClassPartition = "partition" // link between a site pair blocked
	WANClassBrownout  = "brownout"  // link stays up but gains fixed latency
)

// WANClasses lists every WAN fault class in counter-name order.
var WANClasses = []string{WANClassSiteLoss, WANClassSiteFlap, WANClassPartition, WANClassBrownout}

// WANConfig configures the site-scale injector.
type WANConfig struct {
	// Sites is the number of federation sites (>= 1).
	Sites int
	// Seed derives the deterministic flap schedule.
	Seed uint64
	// SiteFlapRate is the per-Step probability that one schedule-chosen
	// site goes dark for FlapWindow steps. Zero draws no randomness.
	SiteFlapRate float64
	// FlapWindow is how many Steps a flapped site stays dark (default 16).
	FlapWindow int
	// Metrics receives the chaos.wan.* counters; nil gets a private registry.
	Metrics *obs.Registry
}

// WAN tracks site and link health for an N-site federation. All methods
// are safe for concurrent use.
type WAN struct {
	cfg WANConfig

	mu        sync.Mutex
	rng       *rand.Rand
	steps     int64
	down      []bool          // explicit site loss
	flapUntil []int64         // site dark while flapUntil > steps
	cut       []bool          // link (a,b), a<b: partitioned
	slow      []time.Duration // link (a,b), a<b: brownout latency
	rate      []int64         // link (a,b), a<b: byte-rate cap, 0 for none
	busyUntil []time.Time     // link (a,b), a<b: when the bytes admitted so far have cleared
	quiesced  bool

	metrics  *obs.Registry
	injected map[string]*obs.Counter
	gDown    *obs.Gauge
	gCut     *obs.Gauge
}

// NewWAN builds a site-scale injector over cfg.Sites sites, all up, all
// links healthy.
func NewWAN(cfg WANConfig) *WAN {
	if cfg.Sites < 1 {
		cfg.Sites = 1
	}
	if cfg.FlapWindow <= 0 {
		cfg.FlapWindow = 16
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n := cfg.Sites
	w := &WAN{
		cfg:       cfg,
		rng:       rand.New(rand.NewPCG(cfg.Seed, 0x3A17E)),
		down:      make([]bool, n),
		flapUntil: make([]int64, n),
		cut:       make([]bool, n*n),
		slow:      make([]time.Duration, n*n),
		rate:      make([]int64, n*n),
		busyUntil: make([]time.Time, n*n),
		metrics:   reg,
		injected:  map[string]*obs.Counter{},
		gDown:     reg.Gauge("chaos.wan.sites_down"),
		gCut:      reg.Gauge("chaos.wan.links_down"),
	}
	for _, class := range WANClasses {
		w.injected[class] = reg.Counter("chaos.wan.injected." + class)
	}
	return w
}

// Sites returns the number of federation sites.
func (w *WAN) Sites() int { return w.cfg.Sites }

// Metrics returns the registry carrying the chaos.wan.* counters.
func (w *WAN) Metrics() *obs.Registry { return w.metrics }

// link canonicalizes an unordered site pair to a flat index (a < b).
func (w *WAN) link(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return a*w.cfg.Sites + b
}

func (w *WAN) checkSite(i int) {
	if i < 0 || i >= w.cfg.Sites {
		panic(fmt.Sprintf("chaos: wan site %d out of range [0,%d)", i, w.cfg.Sites))
	}
}

// LoseSite marks site i unreachable — a whole-site disaster — until
// RestoreSite. Idempotent; explicit, so it consumes no randomness.
func (w *WAN) LoseSite(i int) {
	w.checkSite(i)
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.down[i] {
		w.down[i] = true
		w.injected[WANClassSiteLoss].Inc()
		w.gDown.Set(w.downCountLocked())
	}
}

// RestoreSite readmits site i (and ends any flap window on it).
func (w *WAN) RestoreSite(i int) {
	w.checkSite(i)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.down[i] = false
	w.flapUntil[i] = 0
	w.gDown.Set(w.downCountLocked())
}

func (w *WAN) flapSiteLocked(i, window int) {
	if window <= 0 {
		window = w.cfg.FlapWindow
	}
	until := w.steps + int64(window)
	if until > w.flapUntil[i] {
		w.flapUntil[i] = until
	}
	w.injected[WANClassSiteFlap].Inc()
	w.gDown.Set(w.downCountLocked())
}

// Partition cuts the WAN link between sites a and b: site-to-site exchange
// across that pair fails until HealLink/HealAll. Idempotent.
func (w *WAN) Partition(a, b int) {
	w.checkSite(a)
	w.checkSite(b)
	if a == b {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.cut[w.link(a, b)] {
		w.cut[w.link(a, b)] = true
		w.injected[WANClassPartition].Inc()
		w.gCut.Set(w.cutCountLocked())
	}
}

// HealLink restores the link between a and b and clears its brownout.
func (w *WAN) HealLink(a, b int) {
	w.checkSite(a)
	w.checkSite(b)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cut[w.link(a, b)] = false
	w.slow[w.link(a, b)] = 0
	w.gCut.Set(w.cutCountLocked())
}

// BrownoutLink leaves the a-b link up but adds latency d to every exchange
// crossing it. d <= 0 clears the brownout.
func (w *WAN) BrownoutLink(a, b int, d time.Duration) {
	w.checkSite(a)
	w.checkSite(b)
	if a == b {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if d < 0 {
		d = 0
	}
	if d > 0 && w.slow[w.link(a, b)] == 0 {
		w.injected[WANClassBrownout].Inc()
	}
	w.slow[w.link(a, b)] = d
}

// LimitLink caps the a-b link at bytesPerSec in total, both directions and
// every caller together; bytesPerSec <= 0 lifts the cap. The cap is the
// link's capacity, not an injected fault: it counts under no fault class and
// HealLink and HealAll leave it in place.
func (w *WAN) LimitLink(a, b int, bytesPerSec int64) {
	w.checkSite(a)
	w.checkSite(b)
	if a == b {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rate[w.link(a, b)] = max(bytesPerSec, 0)
	w.busyUntil[w.link(a, b)] = time.Time{}
}

// HealAll restores every site and every link: no losses, no flaps, no
// partitions, no brownouts.
func (w *WAN) HealAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.down {
		w.down[i] = false
		w.flapUntil[i] = 0
	}
	for i := range w.cut {
		w.cut[i] = false
		w.slow[i] = 0
	}
	w.gDown.Set(0)
	w.gCut.Set(0)
}

// Quiesce stops rate-based flap injection and ends active flap windows.
// Explicit site losses and partitions stay (they were deliberate) — heal
// them with RestoreSite/HealLink/HealAll.
func (w *WAN) Quiesce() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesced = true
	for i := range w.flapUntil {
		w.flapUntil[i] = 0
	}
	w.gDown.Set(w.downCountLocked())
}

// Step ticks the WAN operation clock and draws rate-based site flaps.
// The federation facade calls it once per logical operation so the flap
// schedule is a pure function of the seed and the op sequence.
func (w *WAN) Step() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.steps++
	if w.quiesced || w.cfg.SiteFlapRate <= 0 {
		return
	}
	if w.rng.Float64() < w.cfg.SiteFlapRate {
		w.flapSiteLocked(w.rng.IntN(w.cfg.Sites), w.cfg.FlapWindow)
	}
}

// SiteUp reports whether site i is reachable (not lost, not flapping).
// Consumes no randomness.
func (w *WAN) SiteUp(i int) bool {
	w.checkSite(i)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.siteUpLocked(i)
}

func (w *WAN) siteUpLocked(i int) bool {
	return !w.down[i] && w.flapUntil[i] <= w.steps
}

// LinkUp reports whether sites a and b can exchange blocks: both sites up
// and the link between them not partitioned. Consumes no randomness.
func (w *WAN) LinkUp(a, b int) bool {
	w.checkSite(a)
	w.checkSite(b)
	if a == b {
		return w.SiteUp(a)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.siteUpLocked(a) && w.siteUpLocked(b) && !w.cut[w.link(a, b)]
}

// LinkLatency returns the brownout latency on the a-b link (zero when
// healthy). Consumes no randomness.
func (w *WAN) LinkLatency(a, b int) time.Duration {
	w.checkSite(a)
	w.checkSite(b)
	if a == b {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.slow[w.link(a, b)]
}

// Transfer admits n bytes to the a-b link and returns how long the caller
// must wait for them to have crossed: the brownout latency, plus — on a
// capped link — the time until the link has carried everything admitted
// before them and then these n bytes at the capped rate. The link keeps one
// busy-until clock, so transfers queue behind one another however many
// goroutines ask at once: the bytes admitted over any interval never exceed
// rate × interval. On an uncapped link it is LinkLatency. Consumes no
// randomness.
func (w *WAN) Transfer(a, b int, n int64) time.Duration {
	w.checkSite(a)
	w.checkSite(b)
	if a == b {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	l := w.link(a, b)
	d := w.slow[l]
	if rate := w.rate[l]; rate > 0 && n > 0 {
		now := time.Now()
		start := w.busyUntil[l]
		if start.Before(now) {
			start = now
		}
		// Rounded up: a whole repair's waits must add up to no less than
		// bytes / rate.
		w.busyUntil[l] = start.Add(time.Duration((n*int64(time.Second) + rate - 1) / rate))
		d += w.busyUntil[l].Sub(now)
	}
	return d
}

// InjectedWANTotals snapshots the per-class chaos.wan injection counters.
func (w *WAN) InjectedWANTotals() map[string]int64 {
	out := make(map[string]int64, len(WANClasses))
	for _, class := range WANClasses {
		out[class] = w.injected[class].Value()
	}
	return out
}

func (w *WAN) downCountLocked() int64 {
	var n int64
	for i := range w.down {
		if !w.siteUpLocked(i) {
			n++
		}
	}
	return n
}

func (w *WAN) cutCountLocked() int64 {
	var n int64
	for _, c := range w.cut {
		if c {
			n++
		}
	}
	return n
}
