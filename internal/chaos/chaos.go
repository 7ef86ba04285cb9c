// Package chaos is the reproduction's deterministic fault-injection layer:
// a seeded wrapper around any archive.Backend (the plain device array or
// the MAID shelf) that injects a reproducible schedule of the failure
// classes real archival systems face beyond clean device loss — silent bit
// flips at rest, in-flight read corruption, frame truncation, torn
// (partial) writes, transient I/O errors, permanent node loss, and
// availability flapping.
//
// Every injection is counted per fault class in an obs.Registry
// (chaos.injected.*), and the injector tracks which stored frames are
// corrupt at rest, so tests can assert the end-to-end detection invariant:
// every corrupt frame the archive is served is detected by its checksum
// (archive.detected.corrupt_frames == chaos.served_corrupt), and a repair
// scrub after Quiesce converges the store back to zero outstanding
// corruption.
//
// Determinism: all decisions come from a single PCG stream consumed in
// operation order, so a sequential workload with the same seed and rates
// sees the identical fault schedule. (Concurrent use is safe but the
// interleaving then chooses which operation draws which fault.)
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"tornado/internal/archive"
	"tornado/internal/obs"
)

// ErrInjected is the transient fault error. It wraps archive.ErrTransient,
// so the store's bounded retry recognizes it as worth re-attempting.
var ErrInjected = fmt.Errorf("chaos: injected fault: %w", archive.ErrTransient)

// ErrNodeLost is the permanent error served for a lost node. It does NOT
// wrap archive.ErrTransient: the store must treat the node as failed
// immediately, not burn retries on it.
var ErrNodeLost = errors.New("chaos: node permanently lost")

// Fault classes, as spelled in the chaos.injected.<class> counter names.
const (
	ClassBitFlip        = "bitflip"         // single-bit flip persisted at rest
	ClassReadCorruption = "read_corruption" // in-flight bit flip on the served copy
	ClassTruncate       = "truncate"        // in-flight frame truncation
	ClassTornWrite      = "torn_write"      // write silently persists only a prefix
	ClassReadTransient  = "read_transient"  // read fails with ErrInjected
	ClassWriteTransient = "write_transient" // write fails with ErrInjected, nothing persisted
	ClassNodeLoss       = "node_loss"       // node becomes permanently unreachable
	ClassFlap           = "flap"            // node unavailable for a bounded op window
	ClassLatency        = "latency"         // op delayed by an injected slow-path stall
)

// Classes lists every fault class in counter-name order.
var Classes = []string{
	ClassBitFlip, ClassReadCorruption, ClassTruncate, ClassTornWrite,
	ClassReadTransient, ClassWriteTransient, ClassNodeLoss, ClassFlap, ClassLatency,
}

// Config is the injection schedule: a seed and a per-operation probability
// for each fault class. Zero rates inject nothing, so the zero value is a
// transparent wrapper.
type Config struct {
	// Seed derives the deterministic fault schedule.
	Seed uint64

	// At-rest silent corruption: before serving a read, flip one bit of
	// the stored frame and persist it — the damage stays until something
	// rewrites the block (read-repair, scrub).
	BitFlipRate float64
	// In-flight corruption: flip one bit of the served copy only.
	ReadCorruptRate float64
	// In-flight truncation: serve a strict prefix of the frame.
	TruncateRate float64
	// Torn write: persist only a prefix of the data, report success.
	TornWriteRate float64
	// Transient errors: the op fails with ErrInjected; a retry re-rolls.
	ReadErrRate  float64
	WriteErrRate float64
	// Permanent node loss: the touched node starts refusing every op with
	// ErrNodeLost until RestoreNode/RestoreAll. Requires MaxLostNodes > 0.
	NodeLossRate float64
	// MaxLostNodes caps rate-injected node losses so a long campaign
	// cannot erase more nodes than the graph tolerates. 0 disables
	// rate-based loss (explicit LoseNode is never capped).
	MaxLostNodes int
	// Availability flapping: the touched node goes dark for FlapWindow
	// injector operations, then recovers by itself.
	FlapRate   float64
	FlapWindow int // default 16 ops

	// Injected latency: the op stalls for a seeded draw in
	// [LatencyMin, LatencyMax] before touching the inner backend. The
	// stall happens outside the injector mutex and respects the op
	// context, so slow nodes delay only their own callers. Zero rates
	// draw no randomness.
	ReadLatencyRate  float64
	WriteLatencyRate float64
	LatencyMin       time.Duration // default 1ms when a latency rate is set
	LatencyMax       time.Duration // default 10ms

	// Metrics receives the chaos.* counters; nil gets a private registry.
	Metrics *obs.Registry
}

// frameID addresses one stored frame.
type frameID struct {
	node int
	key  string
}

// Injector implements archive.Backend over an inner backend, injecting the
// configured fault schedule. All methods are safe for concurrent use.
type Injector struct {
	inner  archive.Backend
	reader archive.ReaderInto // inner's read
	cfg    Config

	mu          sync.Mutex
	rng         *rand.Rand
	ops         int64 // operation clock (reads + writes)
	lost        []bool
	lostByRate  int
	flapUntil   []int64
	outstanding map[frameID]bool // frames corrupt at rest, not yet rewritten
	quiesced    bool

	metrics  *obs.Registry
	injected map[string]*obs.Counter
	cServed  *obs.Counter
	cVoided  *obs.Counter
	gLost    *obs.Gauge
	gOutst   *obs.Gauge
}

var (
	_ archive.Backend    = (*Injector)(nil)
	_ archive.ReaderInto = (*Injector)(nil)
)

// Wrap builds an injector over inner with the given schedule.
func Wrap(inner archive.Backend, cfg Config) *Injector {
	if cfg.FlapWindow <= 0 {
		cfg.FlapWindow = 16
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	in := &Injector{
		inner:       inner,
		reader:      archive.ReaderIntoOf(inner),
		cfg:         cfg,
		rng:         rand.New(rand.NewPCG(cfg.Seed, 0xC4A05)),
		lost:        make([]bool, inner.Nodes()),
		flapUntil:   make([]int64, inner.Nodes()),
		outstanding: map[frameID]bool{},
		metrics:     reg,
		injected:    map[string]*obs.Counter{},
		cServed:     reg.Counter("chaos.served_corrupt"),
		cVoided:     reg.Counter("chaos.voided_corruptions"),
		gLost:       reg.Gauge("chaos.lost_nodes"),
		gOutst:      reg.Gauge("chaos.outstanding_corruptions"),
	}
	for _, class := range Classes {
		in.injected[class] = reg.Counter("chaos.injected." + class)
	}
	return in
}

// Metrics returns the injector's registry (chaos.injected.<class>,
// chaos.served_corrupt, chaos.voided_corruptions, and the lost-node /
// outstanding-corruption gauges).
func (in *Injector) Metrics() *obs.Registry { return in.metrics }

// InjectedTotals snapshots the per-class injection counters.
func (in *Injector) InjectedTotals() map[string]int64 {
	out := make(map[string]int64, len(Classes))
	for _, class := range Classes {
		out[class] = in.injected[class].Value()
	}
	return out
}

// ServedCorrupt returns how many corrupt frames have been handed to the
// archive — each one must show up in archive.detected.corrupt_frames.
func (in *Injector) ServedCorrupt() int64 { return in.cServed.Value() }

// Outstanding returns the number of stored frames currently corrupt at
// rest. After Quiesce + RestoreAll + a repair scrub it must be zero.
func (in *Injector) Outstanding() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.outstanding)
}

// LostNodes returns the currently lost nodes in ascending order.
func (in *Injector) LostNodes() []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []int
	for node, l := range in.lost {
		if l {
			out = append(out, node)
		}
	}
	return out
}

// Ops returns the injector's operation clock.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Quiesce stops all new fault injection, including latency stalls, and ends
// active flap windows. Already-lost nodes stay lost (the
// loss was permanent) and frames already corrupt at rest stay corrupt — a
// post-quiesce repair scrub is what heals them, which is exactly what soak
// campaigns verify.
func (in *Injector) Quiesce() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.quiesced = true
	for i := range in.flapUntil {
		in.flapUntil[i] = 0
	}
}

// LoseNode marks node permanently lost (explicit, not counted against
// MaxLostNodes).
func (in *Injector) LoseNode(node int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.loseLocked(node, false)
}

// RestoreNode readmits a lost node; its stored contents (including any
// at-rest corruption) reappear intact.
func (in *Injector) RestoreNode(node int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.lost[node] {
		in.lost[node] = false
	}
	in.flapUntil[node] = 0
	in.gLost.Set(int64(in.lostCountLocked()))
}

// RestoreAll readmits every lost node and ends every flap window.
func (in *Injector) RestoreAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.lost {
		in.lost[i] = false
		in.flapUntil[i] = 0
	}
	in.gLost.Set(0)
}

// FlapNode takes node dark for the next window injector operations.
func (in *Injector) FlapNode(node, window int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.flapLocked(node, window)
}

// CorruptStored flips one deterministic bit of the stored frame and
// persists it — the explicit hook for read-repair and scrub tests. It
// fails if the frame cannot be read or rewritten.
func (in *Injector) CorruptStored(node int, key string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.outstanding[frameID{node, key}] {
		return nil // already corrupt at rest; flipping again could revert it
	}
	kb := []byte(key)
	framed, err := in.reader.ReadInto(context.Background(), node, kb, nil)
	if err != nil {
		return fmt.Errorf("chaos: corrupt stored: %w", err)
	}
	if len(framed) == 0 {
		return errors.New("chaos: corrupt stored: empty frame")
	}
	framed[0] ^= 0x80 // break the stored checksum deterministically
	if err := in.inner.Write(context.Background(), node, kb, framed); err != nil {
		return fmt.Errorf("chaos: corrupt stored: %w", err)
	}
	in.injected[ClassBitFlip].Inc()
	in.markOutstandingLocked(frameID{node, key})
	return nil
}

// VoidNode discards the at-rest corruption bookkeeping for node — the
// caller destroyed the device contents (device.Fail before a Replace), so
// those corruptions can never be served or detected. Each voided frame is
// counted in chaos.voided_corruptions.
func (in *Injector) VoidNode(node int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for id := range in.outstanding {
		if id.node == node {
			delete(in.outstanding, id)
			in.cVoided.Inc()
		}
	}
	in.gOutst.Set(int64(len(in.outstanding)))
}

// --- archive.Backend ---

// Nodes returns the inner backend's device count.
func (in *Injector) Nodes() int { return in.inner.Nodes() }

// Available reports inner availability masked by injected node state. It
// consumes no randomness, so probing availability never perturbs the fault
// schedule.
func (in *Injector) Available(node int, key []byte) bool {
	in.mu.Lock()
	down := in.lost[node] || in.flapUntil[node] > in.ops
	in.mu.Unlock()
	if down {
		return false
	}
	return in.inner.Available(node, key)
}

// MediaEpoch is the inner backend's, except that a lost or flapping node is
// unreachable, as Available says.
func (in *Injector) MediaEpoch(node int) (uint64, bool) {
	in.mu.Lock()
	down := in.lost[node] || in.flapUntil[node] > in.ops
	in.mu.Unlock()
	if down {
		return 0, false
	}
	return in.inner.MediaEpoch(node)
}

// Cost forbids lost and flapping nodes and otherwise defers to the inner
// backend, so retrieval planning routes around injected unavailability.
func (in *Injector) Cost(node int) float64 {
	in.mu.Lock()
	down := in.lost[node] || in.flapUntil[node] > in.ops
	in.mu.Unlock()
	if down {
		return math.Inf(1)
	}
	return in.inner.Cost(node)
}

// Read serves a block through the fault schedule into a slice the caller
// owns.
func (in *Injector) Read(ctx context.Context, node int, key []byte) ([]byte, error) {
	return in.ReadInto(ctx, node, key, nil)
}

// ReadInto serves a block through the fault schedule into dst
// (archive.ReaderInto). The context is checked on entry (a cancelled read
// consumes no randomness, keeping the schedule deterministic under
// cancellation) and passed through to the inner backend. In-flight damage is
// done to the served copy — in dst, or in the fresh slice the inner backend
// returned — never to the stored block.
func (in *Injector) ReadInto(ctx context.Context, node int, key []byte, dst []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := in.stall(ctx, in.cfg.ReadLatencyRate); err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	if in.lost[node] {
		return nil, fmt.Errorf("%w (node %d)", ErrNodeLost, node)
	}
	if in.flapUntil[node] > in.ops {
		return nil, fmt.Errorf("%w (node %d flapping)", ErrInjected, node)
	}
	if !in.quiesced {
		switch {
		case in.roll(in.cfg.NodeLossRate) && in.lostByRate < in.cfg.MaxLostNodes:
			in.loseLocked(node, true)
			return nil, fmt.Errorf("%w (node %d)", ErrNodeLost, node)
		case in.roll(in.cfg.FlapRate):
			in.flapLocked(node, in.cfg.FlapWindow)
			return nil, fmt.Errorf("%w (node %d flapping)", ErrInjected, node)
		case in.roll(in.cfg.ReadErrRate):
			in.injected[ClassReadTransient].Inc()
			return nil, fmt.Errorf("%w (read node %d)", ErrInjected, node)
		}
	}
	framed, err := in.reader.ReadInto(ctx, node, key, dst)
	if err != nil {
		return framed, err
	}
	id := frameID{node, string(key)}
	corrupt := in.outstanding[id] // already damaged at rest
	// Never stack a new injection on a frame already corrupt at rest: a
	// second flip could land on the same bit and silently revert the frame
	// to valid while the bookkeeping still calls it corrupt.
	if !in.quiesced && !corrupt && len(framed) > 0 {
		switch {
		case in.roll(in.cfg.BitFlipRate):
			// Persist the flip: this is bit rot, not a wire error. If the
			// write-back fails the damage did not stick at rest, so count
			// it as in-flight corruption instead — the outstanding set
			// must only track frames that are actually corrupt on disk.
			in.flipBit(framed)
			if werr := in.inner.Write(ctx, node, key, framed); werr == nil {
				in.injected[ClassBitFlip].Inc()
				in.markOutstandingLocked(id)
			} else {
				in.injected[ClassReadCorruption].Inc()
			}
			corrupt = true
		case in.roll(in.cfg.ReadCorruptRate):
			in.flipBit(framed)
			in.injected[ClassReadCorruption].Inc()
			corrupt = true
		case in.roll(in.cfg.TruncateRate):
			framed = framed[:in.rng.IntN(len(framed))]
			in.injected[ClassTruncate].Inc()
			corrupt = true
		}
	}
	if corrupt {
		in.cServed.Inc()
	}
	return framed, nil
}

// Write stores a block through the fault schedule. A clean write to a frame
// that was corrupt at rest clears its outstanding mark (that is how
// read-repair and scrub heal show up in the bookkeeping).
func (in *Injector) Write(ctx context.Context, node int, key []byte, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := in.stall(ctx, in.cfg.WriteLatencyRate); err != nil {
		return err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	if in.lost[node] {
		return fmt.Errorf("%w (node %d)", ErrNodeLost, node)
	}
	if in.flapUntil[node] > in.ops {
		return fmt.Errorf("%w (node %d flapping)", ErrInjected, node)
	}
	id := frameID{node, string(key)}
	if !in.quiesced {
		switch {
		case in.roll(in.cfg.WriteErrRate):
			in.injected[ClassWriteTransient].Inc()
			return fmt.Errorf("%w (write node %d)", ErrInjected, node)
		case in.roll(in.cfg.TornWriteRate) && len(data) > 0:
			// Persist a strict prefix but report success: a torn write is
			// silent until a checksum catches it.
			if err := in.inner.Write(ctx, node, key, data[:in.rng.IntN(len(data))]); err != nil {
				return err
			}
			in.injected[ClassTornWrite].Inc()
			in.markOutstandingLocked(id)
			return nil
		}
	}
	err := in.inner.Write(ctx, node, key, data)
	if err == nil && in.outstanding[id] {
		delete(in.outstanding, id)
		in.gOutst.Set(int64(len(in.outstanding)))
	}
	return err
}

// Delete removes a block (and any outstanding-corruption mark on it).
func (in *Injector) Delete(ctx context.Context, node int, key []byte) error {
	in.mu.Lock()
	id := frameID{node, string(key)}
	if in.outstanding[id] {
		delete(in.outstanding, id)
		in.gOutst.Set(int64(len(in.outstanding)))
	}
	in.mu.Unlock()
	return in.inner.Delete(ctx, node, key)
}

// stall applies the injected latency for one op: when rate rolls, a seeded
// draw from [LatencyMin, LatencyMax]. The draw happens under the injector
// mutex (so sequential schedules stay deterministic) but the sleep happens
// outside it, so one stalled op never blocks the rest of the fault
// schedule. A cancelled stall returns the context error without touching
// the inner backend. A zero rate makes this a no-op that consumes no
// randomness.
func (in *Injector) stall(ctx context.Context, rate float64) error {
	in.mu.Lock()
	var d time.Duration
	if !in.quiesced && in.roll(rate) {
		d = in.latencyDrawLocked()
		in.injected[ClassLatency].Inc()
	}
	in.mu.Unlock()
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// latencyDrawLocked picks one stall duration from the configured band.
func (in *Injector) latencyDrawLocked() time.Duration {
	lo, hi := in.cfg.LatencyMin, in.cfg.LatencyMax
	if lo <= 0 {
		lo = time.Millisecond
	}
	if hi < lo {
		hi = 10 * time.Millisecond
		if hi < lo {
			hi = lo
		}
	}
	if hi == lo {
		return lo
	}
	return lo + time.Duration(in.rng.Int64N(int64(hi-lo)+1))
}

// --- internals (callers hold in.mu) ---

func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return in.rng.Float64() < p
}

// flipBit flips one schedule-chosen bit of framed, the served copy — any
// single-bit flip breaks the CRC-32C match.
func (in *Injector) flipBit(framed []byte) {
	bit := in.rng.IntN(len(framed) * 8)
	framed[bit/8] ^= 1 << (bit % 8)
}

func (in *Injector) loseLocked(node int, byRate bool) {
	if in.lost[node] {
		return
	}
	in.lost[node] = true
	if byRate {
		in.lostByRate++
	}
	in.injected[ClassNodeLoss].Inc()
	in.gLost.Set(int64(in.lostCountLocked()))
}

func (in *Injector) flapLocked(node, window int) {
	if window <= 0 {
		window = in.cfg.FlapWindow
	}
	until := in.ops + int64(window)
	if until > in.flapUntil[node] {
		in.flapUntil[node] = until
	}
	in.injected[ClassFlap].Inc()
}

func (in *Injector) markOutstandingLocked(id frameID) {
	in.outstanding[id] = true
	in.gOutst.Set(int64(len(in.outstanding)))
}

func (in *Injector) lostCountLocked() int {
	n := 0
	for _, l := range in.lost {
		if l {
			n++
		}
	}
	return n
}
