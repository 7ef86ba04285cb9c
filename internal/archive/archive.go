// Package archive is the prototype archival storage system the paper works
// toward (§2.2, §6): a transactional object store ("complete files or
// objects are uploaded or downloaded") that stripes every object across one
// simulated device per graph node, protects it with a profiled Tornado Code
// graph, reconstructs around failed devices on read, and proactively scrubs
// stripes — "a stripe reliability assurance and user introspection
// mechanism to proactively monitor the status of distributed encoded
// stripes and reconstruct missing blocks before a stripe approaches the
// initial failure point".
//
// The data path is self-healing: transient backend errors are retried a
// fixed number of times, blocks reconstructed during a Get are written back
// to their home nodes (read-repair), and nodes that repeatedly serve corrupt
// frames are quarantined — excluded from retrieval planning and surfaced in
// scrub reports until an operator replaces the device and clears them.
// Graph node v lives on backend device v.
//
// The store is context-first: every operation that touches the backend
// takes a context.Context.
package archive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"tornado/internal/codec"
	"tornado/internal/device"
	"tornado/internal/graph"
	"tornado/internal/obs"
	"tornado/internal/repairbw"
	"tornado/internal/retrieval"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("archive: object not found")
	ErrExists   = errors.New("archive: object already exists")
	// ErrDataLoss wraps codec.ErrUnrecoverable with object context.
	ErrDataLoss = errors.New("archive: object unrecoverable")
	// ErrDegraded is returned by Put when more block writes failed than
	// Config.MaxPutFailures tolerates: the object would be born below its
	// durability floor, so the write is refused and rolled back instead of
	// silently storing a stripe that is already near its failure point.
	ErrDegraded = errors.New("archive: store too degraded to write")
	// ErrTransient marks a backend fault that may succeed on retry (an
	// injected chaos fault, a flapping network path). Backends wrap
	// transient errors with it; the store's bounded retry only re-attempts
	// errors matching it — a permanently failed device is treated as a
	// missing block immediately.
	ErrTransient = errors.New("archive: transient backend error")
)

// transientRetries is how many extra attempts a transient backend error
// (ErrTransient) earns before the block is treated as missing.
const transientRetries = 2

// Object describes a stored object.
type Object struct {
	Name    string
	Size    int
	Stripes int
}

// committed reports whether the object's Put has finished. Every stored
// object has at least one stripe (an empty one stores one, PutShell demands
// one), so a record with none is a name held by a Put still in flight: Stat
// and List — and through them Get, ReadStripe, Delete and Scrub — do not see
// it, only a second Put of the same name does.
func (o *Object) committed() bool { return o.Stripes > 0 }

// entry is the store's record of one name: the object's metadata and, once a
// Put has committed it, what the Put proved about where its blocks are (a
// shell, whose blocks arrive out of band, has no such proof until a scrub
// pass gives it one). rec is read and replaced under Store.mu.
type entry struct {
	Object
	rec *availRecord
}

// availRecord is what a committed Put, or a later scrub pass, proved about an
// object's blocks: per node, the epoch of its medium when the proof began,
// and whether the node then came to hold every one of the object's blocks —
// by taking every block write of the Put, or by the pass reading and
// verifying or writing each one. While MediaEpoch still answers that epoch —
// the medium has lost nothing since — and the store has not begun to delete
// the object, the node holds each of them: the read path asks the backend
// about them key by key only for the nodes the record does not cover. A
// record is immutable once installed, except for retired; a pass that proves
// more installs a new one (see renewRecords).
type availRecord struct {
	epoch   []uint64
	whole   []bool
	retired atomic.Bool // set by DeleteCtx before it deletes a block
}

// epochs reads every node's MediaEpoch into a fresh record that covers the
// nodes reachable now, at the epochs they are at: where a proof of coverage
// starts, read before its first block operation.
func (s *Store) epochs() *availRecord {
	rec := &availRecord{epoch: make([]uint64, s.g.Total), whole: make([]bool, s.g.Total)}
	for node := range rec.epoch {
		rec.epoch[node], rec.whole[node] = s.backend.MediaEpoch(node)
	}
	return rec
}

// live returns r unless it is nil or retired: the record one stripe's probes
// consult, read once per stripe.
func (r *availRecord) live() *availRecord {
	if r == nil || r.retired.Load() {
		return nil
	}
	return r
}

// available is the data path's one availability probe: whether node holds
// its block of the stripe keys is set to. It answers from rec (a live record
// or nil) when the record covers the node, and asks the backend otherwise.
func (s *Store) available(rec *availRecord, node int, keys *keyBuf) bool {
	return s.covers(rec, node) || s.backend.Available(node, keys.key(node))
}

// covers reports whether rec (a live record or nil) proves that node holds
// every block of its object.
func (s *Store) covers(rec *availRecord, node int) bool {
	if rec == nil || !rec.whole[node] {
		return false
	}
	e, ok := s.backend.MediaEpoch(node)
	return ok && e == rec.epoch[node]
}

// GetStats reports the retrieval work of one Get.
type GetStats struct {
	DevicesAccessed int // distinct devices read
	BlocksRead      int
	BlocksRepaired  int // blocks reconstructed rather than read
	CorruptBlocks   int // blocks failing their checksum (treated as erased)
	ReadRepairs     int // reconstructed blocks written back to their home node
	Retries         int // transient backend errors retried
	// Repair is the byte-level repair bill of this Get: read amplification
	// beyond the healthy-stripe baseline (degraded-get) plus read-repair
	// write-backs, as attributed to the store's repairbw.Meter.
	Repair repairbw.CostReport
}

// Config tunes a Store.
type Config struct {
	// BlockSize is the stripe block size in bytes. Default 4096.
	BlockSize int
	// FirstFailure is the graph's measured worst-case failure point (from
	// the exhaustive search); Scrub uses it to report each stripe's margin
	// to the initial failure point. Zero disables margin reporting.
	FirstFailure int
	// QuarantineThreshold is how many corrupt frames one node may serve
	// before the store quarantines it: Get planning and read-repair stop
	// relying on it. Scrub still reads and repairs it, and readmits it
	// after a pass in which it served only verified frames (ClearQuarantine
	// readmits immediately). 0 means the default (3); negative disables
	// quarantine.
	QuarantineThreshold int
	// MaxPutFailures is how many failed block writes Put tolerates per
	// stripe before refusing the object with ErrDegraded and rolling back
	// what it wrote. 0 means unlimited (parity and scrub absorb every
	// failure — the seed behaviour); negative refuses on any failure.
	MaxPutFailures int
	// Metrics receives the store's self-healing and scrub counters and its
	// repair-traffic meter (repairbw.*). Nil gets a private registry (still
	// readable via Store.Metrics).
	Metrics *obs.Registry
}

// Store is the archival object store. It is safe for concurrent use.
type Store struct {
	g       *graph.Graph
	codec   *codec.Codec
	backend Backend
	reader  ReaderInto   // backend's read, resolved once: every block read goes through it
	devices device.Array // non-nil only for array-backed stores
	cfg     Config
	meter   *repairbw.Meter
	zero    []byte // one all-zero block: every Get's stand-in for a padding block, never written

	mu      sync.Mutex
	objects map[string]*entry

	// scratches is the free list of stripe workspaces: ReadStripe and every
	// stripePipe slot take one and hand it back, so the planner, kernel and
	// arenas inside are built once per scratch, not once per stripe. Being a
	// sync.Pool it holds no more than were in use at one time, and the
	// collector empties it when the store goes idle.
	scratches sync.Pool

	// Quarantine bookkeeping: per-node corrupt-frame counts and the
	// quarantined flag, guarded separately from the object map so scrub
	// detection never contends with metadata lookups.
	healMu       sync.Mutex
	corruptCount []int
	quarantined  []bool

	metrics *obs.Registry
	// Cached metric handles (get-or-create takes the registry mutex; the
	// read path should not).
	mCorruptDetected *obs.Counter
	mReadRetries     *obs.Counter
	mWriteRetries    *obs.Counter
	mReadRepairs     *obs.Counter
	mQuarEvents      *obs.Counter
	mQuarReadmits    *obs.Counter
	gQuarNodes       *obs.Gauge
	mScrubPasses     *obs.Counter
	mScrubRepaired   *obs.Counter
	mScrubCorrupt    *obs.Counter
	mScrubUnrecov    *obs.Counter
}

// New builds a store over one always-on device per graph node.
func New(g *graph.Graph, devices device.Array, cfg Config) (*Store, error) {
	if len(devices) != g.Total {
		return nil, fmt.Errorf("archive: %d devices for a %d-node graph", len(devices), g.Total)
	}
	s, err := NewWithBackend(g, NewArrayBackend(devices), cfg)
	if err != nil {
		return nil, err
	}
	s.devices = devices
	return s, nil
}

// NewWithBackend builds a store over an arbitrary Backend (e.g. a MAID
// shelf, or a chaos-injecting wrapper around either).
func NewWithBackend(g *graph.Graph, backend Backend, cfg Config) (*Store, error) {
	if backend.Nodes() != g.Total {
		return nil, fmt.Errorf("archive: %d devices for a %d-node graph", backend.Nodes(), g.Total)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 4096
	}
	c, err := codec.New(g, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		g:            g,
		codec:        c,
		backend:      backend,
		reader:       ReaderIntoOf(backend),
		cfg:          cfg,
		meter:        repairbw.NewMeter(reg),
		zero:         make([]byte, cfg.BlockSize),
		objects:      map[string]*entry{},
		corruptCount: make([]int, g.Total),
		quarantined:  make([]bool, g.Total),
		metrics:      reg,
	}
	s.scratches.New = func() any { return s.newScratch() }
	s.mCorruptDetected = reg.Counter("archive.detected.corrupt_frames")
	s.mReadRetries = reg.Counter("archive.read.retries")
	s.mWriteRetries = reg.Counter("archive.write.retries")
	s.mReadRepairs = reg.Counter("archive.read_repair.blocks")
	s.mQuarEvents = reg.Counter("archive.quarantine.events")
	s.mQuarReadmits = reg.Counter("archive.quarantine.readmitted")
	s.gQuarNodes = reg.Gauge("archive.quarantine.nodes")
	s.mScrubPasses = reg.Counter("archive.scrub.passes")
	s.mScrubRepaired = reg.Counter("archive.scrub.blocks_repaired")
	s.mScrubCorrupt = reg.Counter("archive.scrub.corrupt_frames")
	s.mScrubUnrecov = reg.Counter("archive.scrub.unrecoverable_stripes")
	return s, nil
}

// Graph returns the store's erasure graph.
func (s *Store) Graph() *graph.Graph { return s.g }

// Devices returns the store's device array when it was built with New, or
// nil for custom backends.
func (s *Store) Devices() device.Array { return s.devices }

// RepairMeter returns the store's repair-traffic ledger (also exported as
// repairbw.* counters on the metric registry).
func (s *Store) RepairMeter() *repairbw.Meter { return s.meter }

// frameSize is the on-device size of one framed block.
func (s *Store) frameSize() int64 { return int64(s.cfg.BlockSize + frameOverhead) }

// FrameSize returns the on-device size of one framed block (block size plus
// checksum framing) — the unit behind every byte figure the repair meter
// reports, so accounting tests and benchmarks can compute exact expectations.
func (s *Store) FrameSize() int { return s.cfg.BlockSize + frameOverhead }

// Metrics returns the store's metric registry: self-healing counters
// (archive.detected.corrupt_frames, archive.read_repair.blocks,
// archive.read.retries, archive.quarantine.*) and scrub outcomes
// (archive.scrub.*).
func (s *Store) Metrics() *obs.Registry { return s.metrics }

// putFailureLimit resolves Config.MaxPutFailures: -1 means unlimited
// (the zero-value default), otherwise the per-stripe tolerance.
func (s *Store) putFailureLimit() int {
	switch {
	case s.cfg.MaxPutFailures < 0:
		return 0
	case s.cfg.MaxPutFailures == 0:
		return -1 // unlimited
	default:
		return s.cfg.MaxPutFailures
	}
}

// discardBlocks best-effort deletes the first `stripes` stripes of an
// object — the rollback half of a refused Put. Going through the backend
// (not just the metadata map) matters: a torn write may have silently
// persisted a corrupt prefix that no scrub would ever visit again. The
// rollback runs detached from the caller's context: a cancelled Put must
// still clean up after itself.
func (s *Store) discardBlocks(ctx context.Context, name string, stripes int) {
	ctx = context.WithoutCancel(ctx)
	var keys keyBuf
	for st := 0; st < stripes; st++ {
		keys.stripe(name, st)
		for node := 0; node < s.g.Total; node++ {
			_ = s.backend.Delete(ctx, node, keys.key(node))
		}
	}
}

// quarantineThreshold resolves Config.QuarantineThreshold: default 3,
// negative disables.
func (s *Store) quarantineThreshold() int {
	switch {
	case s.cfg.QuarantineThreshold < 0:
		return 0 // disabled
	case s.cfg.QuarantineThreshold == 0:
		return 3
	default:
		return s.cfg.QuarantineThreshold
	}
}

// isQuarantined reports whether node is excluded from the data path.
func (s *Store) isQuarantined(node int) bool {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	return s.quarantined[node]
}

// quarantineSnapshot copies every node's quarantine flag into dst under one
// lock — what a stripe read plans with.
func (s *Store) quarantineSnapshot(dst []bool) {
	s.healMu.Lock()
	copy(dst, s.quarantined)
	s.healMu.Unlock()
}

// Quarantined returns the currently quarantined nodes in ascending order.
func (s *Store) Quarantined() []int {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	var out []int
	for node, q := range s.quarantined {
		if q {
			out = append(out, node)
		}
	}
	return out
}

// ClearQuarantine readmits a node to the data path and resets its corruption
// count — the operator action after replacing or vetting the device. The
// next repair scrub repopulates its blocks.
func (s *Store) ClearQuarantine(node int) {
	if node < 0 || node >= s.g.Total {
		return
	}
	s.healMu.Lock()
	s.corruptCount[node] = 0
	s.quarantined[node] = false
	n := countTrue(s.quarantined)
	s.healMu.Unlock()
	s.gQuarNodes.Set(int64(n))
}

// noteCorrupt records one detected corrupt frame from node: it feeds the
// detection counter (the chaos soak asserts detected == injected against
// it) and the per-node quarantine bookkeeping.
func (s *Store) noteCorrupt(node int) {
	s.mCorruptDetected.Inc()
	thr := s.quarantineThreshold()
	if thr == 0 {
		return
	}
	s.healMu.Lock()
	s.corruptCount[node]++
	newlyQuarantined := !s.quarantined[node] && s.corruptCount[node] >= thr
	if newlyQuarantined {
		s.quarantined[node] = true
	}
	n := countTrue(s.quarantined)
	s.healMu.Unlock()
	if newlyQuarantined {
		s.mQuarEvents.Inc()
		s.gQuarNodes.Set(int64(n))
	}
}

// scrubPass accumulates one scrub pass's per-node evidence: how many frames
// the node served that verified, and how many failed their checksum.
type scrubPass struct {
	clean   []int
	corrupt []int
}

// noteScrubPass applies a completed scrub pass's verdict to the quarantine
// bookkeeping. A node that served at least one verified frame and zero
// corrupt ones over the whole pass has proven itself healthy: its corruption
// count resets and, if it was quarantined, it is readmitted to the data
// path. Nodes that served corrupt frames — or nothing at all (failed or
// unreachable devices earn no credit) — keep their record.
func (s *Store) noteScrubPass(pass scrubPass) {
	readmitted := 0
	s.healMu.Lock()
	for node := range s.corruptCount {
		if pass.corrupt[node] > 0 || pass.clean[node] == 0 {
			continue
		}
		s.corruptCount[node] = 0
		if s.quarantined[node] {
			s.quarantined[node] = false
			readmitted++
		}
	}
	n := countTrue(s.quarantined)
	s.healMu.Unlock()
	if readmitted > 0 {
		s.mQuarReadmits.Add(int64(readmitted))
	}
	s.gQuarNodes.Set(int64(n))
}

// readFramed reads a framed block into dst under the ReaderInto contract —
// the frame may alias dst; with a nil dst it is the caller's to keep —
// retrying a transient backend error up to transientRetries times, at once.
// Cancellation is honored between attempts. Any other error (failed device,
// missing block) returns immediately — the caller treats the block as an
// erasure.
func (s *Store) readFramed(ctx context.Context, node int, key, dst []byte, stats *GetStats) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		framed, err := s.reader.ReadInto(ctx, node, key, dst)
		if err == nil || !errors.Is(err, ErrTransient) || attempt >= transientRetries {
			return framed, err
		}
		s.mReadRetries.Inc()
		if stats != nil {
			stats.Retries++
		}
	}
}

// writeFramedBuf frames a payload into a caller-owned frame buffer and writes
// it, retrying transient errors as reads do (the Backend contract lets the
// buffer be reused once Write returns). frameAppend copies the payload into
// buf, so payload may alias a read frame in the scratch's arena (see
// unframeBlock). The possibly-grown buffer is returned for reuse.
func (s *Store) writeFramedBuf(ctx context.Context, node int, key []byte, payload, buf []byte) ([]byte, error) {
	buf = frameAppend(buf, payload)
	return buf, s.writeFrame(ctx, node, key, buf)
}

func (s *Store) writeFrame(ctx context.Context, node int, key []byte, framed []byte) error {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := s.backend.Write(ctx, node, key, framed)
		if err == nil || !errors.Is(err, ErrTransient) || attempt >= transientRetries {
			return err
		}
		s.mWriteRetries.Inc()
	}
}

// keyBuf builds block keys ("name/stripe/node") through one reusable byte
// buffer: the stripe prefix is laid down once per stripe and node suffixes
// appended per block. Since the Backend contract borrows keys only for the
// duration of a call, a key costs no allocation at all — the same buffer is
// rewritten for every block. One keyBuf serves one goroutine.
type keyBuf struct {
	buf    []byte
	prefix int // length of the "name/stripe/" prefix
}

// stripe sets the buffer's prefix for one object stripe.
func (k *keyBuf) stripe(name string, st int) {
	k.buf = append(k.buf[:0], name...)
	k.buf = append(k.buf, '/')
	k.buf = strconv.AppendInt(k.buf, int64(st), 10)
	k.buf = append(k.buf, '/')
	k.prefix = len(k.buf)
}

// key returns the key for node under the current stripe prefix. The slice
// aliases the buffer: it is valid only until the next key/stripe call, which
// matches the Backend contract (backends copy keys they retain).
func (k *keyBuf) key(node int) []byte {
	k.buf = strconv.AppendInt(k.buf[:k.prefix], int64(node), 10)
	return k.buf
}

// stripeScratch is the reusable workspace of the stripe data path: block
// pointers, availability masks, the codec repair workspace, the planner, the
// arena the stripe's frames are read into, the frame/key buffers and a
// pipeline slot's payload buffer — everything a stripe needs except a payload
// that leaves the store (ReadStripeInto's result), which belongs to whoever
// receives it. One scratch serves one goroutine at a time; it comes off
// Store.scratches and goes back there.
type stripeScratch struct {
	blocks   [][]byte // read blocks alias frames (a Get's data blocks, its dst); rebuilt ones the workspace arena
	frames   []byte   // Total frame slots, one per node: where reads land
	avail    []bool
	known    []bool    // a Get's padding nodes: data past the payload, zero by construction
	quar     []bool    // the stripe read's quarantine snapshot
	cost     []float64 // what planning each available node costs, probed beside avail
	corrupt  []bool
	fromRead []bool // blocks[i] came from a backend read (not reconstruction)
	want     []bool // blocks the decode is to rebuild for read-repair
	unaided  []bool // scrub: blocks[i] was rebuilt before any donor block arrived
	donated  []bool // scrub: blocks[i] came from the pass's Donor
	lacking  []int  // scrub: the nodes a stripe's Donor call is told it lacks
	ws       *codec.Workspace
	enc      *codec.Encoder
	planner  *retrieval.Planner // reused: planning a stripe allocates nothing
	planCost retrieval.CostFunc // reads cost; bound once, a per-call closure allocates
	frameBuf []byte
	payload  []byte // a pipeline slot's stripe: PutStream reads into it, GetStream decodes into it
	keys     keyBuf
	touched  []bool // nodes read since the scratch came off the free list
}

// newScratch returns a stripe workspace sized for the store's graph. The
// encoder, the planner, the frame arena and the workspace's repair arena are
// created lazily (get-only scratches never pay for an encoder; put-only
// scratches never pay for a planner kernel or a frame arena, nor they or
// healthy reads for a repair arena).
func (s *Store) newScratch() *stripeScratch {
	return &stripeScratch{
		blocks:   make([][]byte, s.g.Total),
		avail:    make([]bool, s.g.Total),
		known:    make([]bool, s.g.Total),
		quar:     make([]bool, s.g.Total),
		cost:     make([]float64, s.g.Total),
		corrupt:  make([]bool, s.g.Total),
		fromRead: make([]bool, s.g.Total),
		want:     make([]bool, s.g.Total),
		unaided:  make([]bool, s.g.Total),
		donated:  make([]bool, s.g.Total),
		ws:       s.codec.NewWorkspace(),
		touched:  make([]bool, s.g.Total),
	}
}

// scratch takes a stripe workspace off the free list.
func (s *Store) scratch() *stripeScratch { return s.scratches.Get().(*stripeScratch) }

// release hands a scratch back to the free list, letting go of the blocks
// its last stripe held that are not the scratch's own (a donor's, the
// caller-owned frames of a backend without ReadInto).
func (s *Store) release(sc *stripeScratch) {
	clear(sc.blocks)
	clear(sc.touched)
	s.scratches.Put(sc)
}

// plan returns the scratch's reusable stripe planner, which knows the blocks
// sc.known names.
func (sc *stripeScratch) plan(s *Store) (*retrieval.Planner, retrieval.CostFunc) {
	if sc.planner == nil {
		sc.planner = retrieval.NewPlanner(s.g)
		sc.planner.Known(sc.known)
		sc.planCost = func(node int) float64 { return sc.cost[node] }
	}
	return sc.planner, sc.planCost
}

// payloadBuf returns the scratch's stripe-sized payload buffer, built on
// first use.
func (sc *stripeScratch) payloadBuf(s *Store) []byte {
	if sc.payload == nil {
		sc.payload = make([]byte, s.codec.Capacity())
	}
	return sc.payload
}

// frame returns node's slot of the scratch's frame arena: the dst of the
// node's read, empty, with room for exactly one frame — a longer frame is
// grown out of the arena, never into the next node's slot. What a stripe
// read into its slots is dead once the scratch starts the next stripe:
// sc.blocks, which aliases them, is reset first, payloads are decoded (copied)
// into the receiver's buffer, and every write-back re-frames into frameBuf.
// A Get reads most full data blocks straight into the receiver's buffer
// instead (see getStripe): those never pass through a slot.
func (sc *stripeScratch) frame(s *Store, node int) []byte {
	size := s.FrameSize()
	if sc.frames == nil {
		sc.frames = make([]byte, s.g.Total*size)
	}
	lo := node * size
	return sc.frames[lo : lo : lo+size]
}

func (sc *stripeScratch) encoder(s *Store) *codec.Encoder {
	if sc.enc == nil {
		sc.enc = s.codec.NewEncoder()
	}
	return sc.enc
}

// reserve claims name in the object map, returning the uncommitted entry
// the caller finalizes (or rolls back) later.
func (s *Store) reserve(name string) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &entry{Object: Object{Name: name}}
	s.objects[name] = e
	return e, nil
}

// putStripe encodes one stripe payload and writes its blocks. Devices that
// are unavailable at write time simply miss their block — exactly the
// redundancy the code is there to absorb — and are marked in missed. Blocks
// are stored framed with a CRC-32C so bit rot is detected on read; transient
// write faults are retried. A ctx error aborts immediately.
func (s *Store) putStripe(ctx context.Context, name string, st int, payload []byte, sc *stripeScratch, missed []bool) error {
	blocks, err := sc.encoder(s).Encode(payload)
	if err != nil {
		return err
	}
	sc.keys.stripe(name, st)
	failed := 0
	for node, b := range blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		var werr error
		sc.frameBuf, werr = s.writeFramedBuf(ctx, node, sc.keys.key(node), b, sc.frameBuf)
		if werr != nil {
			if errIsCtx(werr) {
				return werr
			}
			missed[node] = true
			failed++
		}
	}
	if lim := s.putFailureLimit(); lim >= 0 && failed > lim {
		return fmt.Errorf("%w: %q stripe %d lost %d of %d block writes",
			ErrDegraded, name, st, failed, len(blocks))
	}
	return nil
}

// PutCtx encodes and stores an object. The transactional archival interface
// takes whole objects; there are no partial updates (paper §2.2). The write
// checks ctx between blocks, and a cancelled Put rolls its partial object
// back (the rollback itself is not cancellable). The stripes are sub-slices
// of data, encoded one at a time on the caller's goroutine.
func (s *Store) PutCtx(ctx context.Context, name string, data []byte) error {
	stripeCap := s.codec.Capacity()
	_, err := s.putObject(ctx, name, 1, func(sl *stripeSlot) (bool, error) {
		lo := sl.st * stripeCap
		if lo >= len(data) && sl.st > 0 { // an empty object still stores one stripe
			return false, nil
		}
		sl.payload = data[lo:min(lo+stripeCap, len(data))]
		return true, nil
	})
	return err
}

// GetCtx retrieves an object, reconstructing around unavailable devices.
// Each stripe is decoded straight into its place in the returned slice. ctx
// is checked between stripes and between blocks, so a cancelled Get returns
// promptly mid-object instead of finishing the remaining stripes.
func (s *Store) GetCtx(ctx context.Context, name string) ([]byte, GetStats, error) {
	obj, rec, err := s.lookup(name)
	if err != nil {
		return nil, GetStats{}, err
	}
	out := make([]byte, obj.Size)
	stats, err := s.getStripes(ctx, obj, rec, 1, out, nil)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// ReadStripe retrieves one stripe's decoded payload — the serve layer's
// cache-fill granularity — in a slice of its own: ReadStripeInto(…, nil),
// exactly as long as the payload (len == cap).
func (s *Store) ReadStripe(ctx context.Context, name string, st int) ([]byte, GetStats, error) {
	return s.ReadStripeInto(ctx, name, st, nil)
}

// ReadStripeInto is ReadStripe decoding into dst: when the payload fits in
// cap(dst) the result is dst[:len(payload)], otherwise a fresh slice exactly
// as long as the payload. Either way it is the caller's — the store keeps no
// reference to it, or to dst, and no later read writes to it. On error dst
// may have been written to.
func (s *Store) ReadStripeInto(ctx context.Context, name string, st int, dst []byte) ([]byte, GetStats, error) {
	obj, rec, err := s.lookup(name)
	var stats GetStats
	if err != nil {
		return nil, stats, err
	}
	if st < 0 || st >= obj.Stripes {
		return nil, stats, fmt.Errorf("%w: %q stripe %d", ErrNotFound, name, st)
	}
	stripeCap := s.codec.Capacity()
	n := min(obj.Size-st*stripeCap, stripeCap)
	if cap(dst) < n {
		dst = make([]byte, 0, n)
	}
	sc := s.scratch()
	defer s.release(sc)
	payload, err := s.getStripe(ctx, name, st, rec, dst[:0:n], sc, &stats)
	if err != nil {
		return nil, stats, err
	}
	stats.DevicesAccessed = countTrue(sc.touched)
	return dst[:len(payload)], stats, nil
}

// getStripe reconstructs one stripe of the object rec records into dst's
// spare capacity — cap(dst) is the payload length — and returns the filled
// slice.
//
// It has one recovery path: plan the cheapest set of frames that rebuilds
// the live data, read it, and re-plan around each frame that comes back
// rotten or unreadable, retrying once the nodes that errored when no plan is
// left. Once every planned frame is read, one decode rebuilds the stripe; a
// stripe with no plan left is ErrDataLoss and is not decoded.
//
// The data nodes past the payload's last block hold zero padding, which the
// read knows without asking: they are present to the planner at no cost and
// to the peel as one shared zero block, and the stripe never probes, reads or
// writes them back (Put writes them, scrub verifies and repairs them).
func (s *Store) getStripe(ctx context.Context, name string, st int, rec *availRecord, dst []byte, sc *stripeScratch, stats *GetStats) ([]byte, error) {
	// One probe pass: a quarantine snapshot taken under one lock, then per
	// node not known its availability and — for the planner — its read cost.
	live := s.liveBlocks(cap(dst))
	sc.keys.stripe(name, st)
	s.quarantineSnapshot(sc.quar)
	rec = rec.live()
	for node := range sc.avail {
		sc.known[node] = node >= live && node < s.g.Data
		sc.blocks[node] = nil
		sc.corrupt[node] = false
		sc.fromRead[node] = false
		if sc.known[node] {
			sc.avail[node] = true
			sc.blocks[node] = s.zero
			continue
		}
		sc.avail[node] = !sc.quar[node] && s.available(rec, node, &sc.keys)
		if sc.avail[node] {
			sc.cost[node] = s.backend.Cost(node)
		}
	}

	// Repair-traffic accounting: a healthy stripe read moves exactly one
	// full frame per live data block, so on success everything beyond that
	// baseline — extra plan blocks, corrupt frames, what a re-plan adds — is
	// degraded-get traffic; a failed stripe attributes every byte it read. A
	// successful decode necessarily consumed at least live verified
	// full-size frames (live blocks cannot be rebuilt from fewer), so the
	// surplus is never negative.
	var gotBlocks int
	var gotBytes int64
	record := func(success bool) {
		bill := repairbw.CostReport{BlocksRead: gotBlocks, BytesRead: gotBytes}
		if success {
			bill.BlocksRead -= live
			bill.BytesRead -= int64(live) * s.frameSize()
		}
		stats.Repair.Add(bill)
		s.meter.Record(repairbw.DegradedGet, bill)
	}

	// PlanEconomic prefers the recovery plan with the fewest projected
	// repair bytes (blocks beyond the live data floor), falling back to plan
	// price on ties; a healthy stripe short-circuits after one ordering.
	planner, planCost := sc.plan(s)
	toRead, _, err := planner.PlanEconomic(sc.avail, planCost)
	if err != nil {
		return nil, fmt.Errorf("%w: %q stripe %d: %v", ErrDataLoss, name, st, err)
	}

	// corrupt marks frames that failed their checksum during this read, so
	// the retry never re-reads (and never double-counts) them.
	var ctxErr error
	readFrame := func(node int, slot []byte) {
		framed, err := s.readFramed(ctx, node, sc.keys.key(node), slot, stats)
		if err != nil {
			if errIsCtx(err) {
				ctxErr = err
			}
			return // raced with a failure; the loop prices the node out
		}
		sc.touched[node] = true
		stats.BlocksRead++
		gotBlocks++
		gotBytes += int64(len(framed))
		// unframeBlock's payload aliases framed, and framed the slot (or, from
		// a backend without ReadInto, a fresh slice); the alias lives only in
		// sc.blocks[node], which is read (never mutated) by the codec and
		// copied by the frame layer before any write-back.
		b, ok := unframeBlock(framed)
		if !ok {
			stats.CorruptBlocks++ // bit rot: treat as an erasure
			sc.corrupt[node] = true
			s.noteCorrupt(node)
			return
		}
		sc.blocks[node] = b
		sc.fromRead[node] = true
	}
	// A full live data block other than the first is read straight into its
	// place in dst, so the decode has nothing to copy for it: its frame's
	// checksum header lands over the last bytes of the block before, which
	// are saved first and put back once the frame is checked, whatever the
	// read's outcome. The slot's capacity ends at the block's end, so a frame
	// that does not fit is grown elsewhere. Every other block — the first,
	// a partial last one, parity — is read into the node's slot of the
	// scratch's arena and copied by the decode.
	bs := s.cfg.BlockSize
	readInto := func(node int) {
		if ctxErr != nil {
			return
		}
		if node == 0 || (node+1)*bs > cap(dst) {
			readFrame(node, sc.frame(s, node))
			return
		}
		at := node*bs - frameOverhead
		tail := dst[at : node*bs]
		saved := [frameOverhead]byte(tail)
		readFrame(node, dst[at:at:(node+1)*bs])
		copy(tail, saved[:])
	}
	// A planned frame that comes back rotten or unreadable prices its node
	// out (+Inf, which the planner treats as unavailable), and the stripe is
	// re-planned with every frame already read priced at zero: only what the
	// new plan adds is read — a check or two around one bad data block, not
	// the stripe. When no plan is left, each node the loop priced out for an
	// error (available, not rotten, not padding) gets a fresh price once per
	// stripe and the stripe is re-planned: a transient fault past the retry
	// budget may have cleared. Every other round prices out at least one more
	// node, so the loop ends — with every planned block read, or in
	// ErrDataLoss.
	retried := false
	for {
		replan := false
		for _, node := range toRead {
			if sc.blocks[node] != nil {
				continue // read in an earlier round
			}
			if readInto(node); sc.blocks[node] == nil {
				sc.cost[node] = math.Inf(1)
				replan = true
			}
		}
		if ctxErr != nil {
			record(false)
			return nil, ctxErr
		}
		if !replan {
			break
		}
		for node, read := range sc.fromRead {
			if read {
				sc.cost[node] = 0
			}
		}
		toRead, _, err = planner.PlanEconomic(sc.avail, planCost)
		if err != nil && !retried {
			retried = true
			for node, c := range sc.cost {
				if math.IsInf(c, 1) && sc.avail[node] && !sc.corrupt[node] && !sc.known[node] {
					sc.cost[node] = s.backend.Cost(node)
				}
			}
			toRead, _, err = planner.PlanEconomic(sc.avail, planCost)
		}
		if err != nil {
			record(false)
			return nil, fmt.Errorf("%w: %q stripe %d: %v", ErrDataLoss, name, st, err)
		}
	}
	// Every planned block is read, so the decode rebuilds the data blocks
	// and, for read-repair, the blocks whose stored frame is missing or
	// rotten. Parity that was merely not read is not re-encoded.
	for node := range sc.want {
		sc.want[node] = !sc.avail[node] || sc.corrupt[node]
	}
	sc.ws.Want(sc.want)
	payload, err := s.codec.DecodeInto(sc.ws, dst[:0], sc.blocks, cap(dst))
	if err != nil {
		record(false)
		return nil, fmt.Errorf("%w: %q stripe %d: %v", ErrDataLoss, name, st, err)
	}
	record(true)
	for node := range live {
		if !sc.fromRead[node] {
			stats.BlocksRepaired++
		}
	}
	s.readRepairStripe(ctx, sc, stats)
	return payload, nil
}

// countTrue is how many of bs are set.
func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// liveBlocks is how many data blocks a stripe payload of n bytes fills: the
// rest of the stripe's data blocks are zero padding.
func (s *Store) liveBlocks(n int) int { return (n + s.cfg.BlockSize - 1) / s.cfg.BlockSize }

// readRepairStripe writes blocks reconstructed during a read back to their
// home nodes, so a Get heals the damage it discovers instead of deferring
// to the next scrub: a corrupt frame is overwritten in place, and a node
// that lost its block (e.g. a replaced blank drive) is repopulated.
// getStripe's decode was asked for exactly these blocks, so each one that is
// recoverable is present. Unreachable and quarantined nodes are skipped;
// write errors are ignored (the next scrub retries).
// The scratch's keyBuf still carries the stripe prefix getStripe set.
func (s *Store) readRepairStripe(ctx context.Context, sc *stripeScratch, stats *GetStats) {
	var bill repairbw.CostReport
	for node := range sc.blocks {
		if sc.blocks[node] == nil || (sc.avail[node] && !sc.corrupt[node]) {
			continue // nothing reconstructed, or the stored frame is fine
		}
		// Both checks are live, not the probe pass's: this stripe's own reads
		// can have quarantined the node or lost its device since.
		if s.isQuarantined(node) || math.IsInf(s.backend.Cost(node), 1) {
			continue
		}
		var err error
		sc.frameBuf, err = s.writeFramedBuf(ctx, node, sc.keys.key(node), sc.blocks[node], sc.frameBuf)
		if err == nil {
			s.mReadRepairs.Inc()
			bill.BlocksWritten++
			bill.BytesWritten += s.frameSize()
			stats.ReadRepairs++
		}
	}
	stats.Repair.Add(bill)
	s.meter.Record(repairbw.ReadRepair, bill)
}

// DeleteCtx removes an object and its blocks from all reachable devices,
// with cancellation between block deletions. Its availability record is
// retired first: from then on every probe of the object asks the backend.
func (s *Store) DeleteCtx(ctx context.Context, name string) error {
	obj, err := s.retire(name)
	if err != nil {
		return err
	}
	var keys keyBuf
	for st := 0; st < obj.Stripes; st++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		keys.stripe(name, st)
		for node := 0; node < s.g.Total; node++ {
			_ = s.backend.Delete(ctx, node, keys.key(node))
		}
	}
	s.deleteObject(name)
	return nil
}

// retire looks name up and retires its availability record in one step under
// s.mu, so no scrub pass renews the record after: a shell, which has none,
// gets a retired empty one.
func (s *Store) retire(name string) (Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[name]
	if !ok || !e.committed() {
		return Object{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.rec == nil {
		e.rec = &availRecord{}
	}
	e.rec.retired.Store(true)
	return e.Object, nil
}

func (s *Store) deleteObject(name string) {
	s.mu.Lock()
	delete(s.objects, name)
	s.mu.Unlock()
}

// List returns the stored objects sorted by name.
func (s *Store) List() []Object {
	es := s.entries()
	out := make([]Object, len(es))
	for i, e := range es {
		out[i] = e.Object
	}
	return out
}

// entryRef is a committed entry as one look under Store.mu saw it, and the
// entry itself.
type entryRef struct {
	entry
	at *entry
}

// entries returns the committed objects with their records, sorted by name.
func (s *Store) entries() []entryRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]entryRef, 0, len(s.objects))
	for _, e := range s.objects {
		if e.committed() {
			out = append(out, entryRef{*e, e})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
