package archive

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"tornado/internal/decode"
	"tornado/internal/repairbw"
)

// StripeHealth is the introspection record for one stripe (§6: "stripe
// reliability assurance and user introspection mechanism"). A repairing
// pass reports the stripe as its one visit left it, the visit's retry of the
// nodes that did not answer included (see repairStripe).
type StripeHealth struct {
	Object      string
	Stripe      int
	Missing     []int // nodes whose block is unreachable, absent, or corrupt
	Corrupt     []int // nodes whose frame failed its checksum (bit rot)
	Quarantined []int // nodes quarantined (excluded from Get planning) at scrub time
	Recoverable bool  // the surviving blocks still reconstruct the data
	// Margin is FirstFailure − len(Missing): how many further losses the
	// stripe is guaranteed to absorb. Negative or zero means the stripe is
	// at or past the initial failure point. Only meaningful when the store
	// was configured with the graph's measured FirstFailure.
	Margin int
	// Repaired lists the blocks the scrub rewrote onto healthy devices.
	Repaired []int
}

// ScrubReport aggregates a scrub pass.
type ScrubReport struct {
	Stripes          []StripeHealth
	BlocksRepaired   int
	CorruptFrames    int // frames that failed their checksum during the pass
	AtRisk           int // stripes with Margin <= 0 (when margin is enabled)
	Unrecoverable    int
	QuarantinedNodes []int // nodes quarantined at the end of the pass
	// Cost is the pass's repair-traffic bill: every byte the scrub read to
	// verify stripes and wrote to repair them (also recorded on the store's
	// repairbw.Meter under the Scrub cause).
	Cost repairbw.CostReport
}

// Donor completes what it can of one stripe a RepairFrom pass could not rebuild
// alone. The pass calls it once per such stripe, after its peel and its retry
// of the nodes that did not answer (see repairStripe), from its workers,
// several stripes at once. lacking lists, ascending, the nodes the
// stripe still has no block for; blocks has one entry per node. A lacking data
// node's entry is an empty buffer with room for one frame (FrameSize bytes) if
// the node's device answered for its media as the pass began, else nil: the
// pass may not be able to store that block, though it re-encodes checks from
// it. (A remote pass cannot tell, and marks every lacking data node storable
// with an empty non-nil entry.) For each lacking data node it can supply, the
// donor sets the entry to the block (BlockSize bytes), read into the buffer —
// ReadBlockCtx(ctx, name, stripe, node, blocks[node]) does — or a slice of its
// own, the pass's to keep either way. It changes no other entry and keeps no
// reference to blocks; an error ends the pass.
type Donor func(ctx context.Context, name string, stripe int, lacking []int, blocks [][]byte) error

// DonorReport is the outcome of a RepairFrom pass: its scrub report, and how
// the blocks it wrote home split between the store's own redundancy and the
// donor. The two counts are folded in stripe by stripe as the work is done, so
// unlike the per-stripe list they are complete on an error return as well.
type DonorReport struct {
	ScrubReport
	// BlocksLocal counts the rewritten blocks that peeling rebuilt from what
	// the store still held, before the donor was asked for anything.
	BlocksLocal int
	// BlocksImported counts the donor's data blocks written home. Each is
	// billed to the Federation cause, as WriteBlock bills it, and is not in
	// Cost; the checks re-encoded from them are ordinary scrub repairs.
	BlocksImported int
}

// ScrubCtx inspects every stripe of every object, reports each stripe's
// health, and — when repair is true — reconstructs missing blocks and
// rewrites them to their home devices (replaced drives are repopulated this
// way). Unrecoverable stripes are reported, never touched.
//
// Scrub is also the quarantine arbiter. Unlike Get, it reads quarantined
// nodes — the frame checksum makes the read safe, and the pass is how a
// node earns its way back: a node that serves at least one verified frame
// and zero corrupt ones over a full pass has its corruption count reset and,
// if quarantined, is readmitted to the data path. A node that keeps serving
// corrupt frames keeps its record and stays out. Outcomes are exported as
// obs metrics (archive.scrub.*) on the store's registry.
//
// The pass checks ctx at every stripe boundary and returns ctx.Err() with
// the partial report, so a steward can bound scrub latency on a large
// store. A cancelled pass gathers no quarantine evidence (partial passes
// must not readmit nodes) and renews no availability record (a completed
// one does: see renewRecords). Stripes are visited one at a time, objects in
// List order: what the pass does to the backend, and in which order, is a
// function of the store's state alone.
func (s *Store) ScrubCtx(ctx context.Context, repair bool) (ScrubReport, error) {
	rep, err := s.scrub(ctx, repair, nil, 1)
	return rep.ScrubReport, err
}

// RepairFrom is a repairing scrub with somewhere to turn when a stripe's own
// redundancy is not enough — the pass that rebuilds a site whose media is
// gone. Per stripe it reads and verifies what is there, peels, makes one
// donor call for the data blocks peeling could not reach, peels on so the
// store's own checks are re-encoded from them, and writes every rebuilt block
// home: one visit per stripe, nothing read that was not already on disk. A
// stripe the donor could not complete is reported not Recoverable (what
// peeling reached is still written) and left to the caller; so is one the
// donor completed whose stored blocks, some refused by a dead drive, no
// longer reconstruct it. Stripes run through the stripe pipeline at the
// default stream width, so unlike ScrubCtx the order of backend calls is not
// fixed; the report, and what ends up stored, are.
func (s *Store) RepairFrom(ctx context.Context, donor Donor) (DonorReport, error) {
	return s.scrub(ctx, true, donor, applyStreamOptions(nil).parallelism)
}

// scrub is the one scrub pass: every stripe of every object visited once by
// repairStripe on a stripePipe of the given width, reported in List order.
func (s *Store) scrub(ctx context.Context, repair bool, donor Donor, width int) (DonorReport, error) {
	s.mScrubPasses.Inc()
	start := s.epochs()
	var rep DonorReport
	// Per-node evidence for the quarantine verdict: frames that verified
	// and frames that failed their checksum during this pass.
	pass := scrubPass{
		clean:   make([]int, s.g.Total),
		corrupt: make([]int, s.g.Total),
	}
	var mu sync.Mutex // guards pass and rep's totals: the workers fold into both

	objs := s.entries()
	stripes := 0
	for _, obj := range objs {
		stripes += obj.Stripes
	}
	obj, st := 0, 0
	p := stripePipe{
		width: max(1, min(width, stripes)),
		produce: func(sl *stripeSlot) (bool, error) {
			for obj < len(objs) && st == objs[obj].Stripes {
				obj, st = obj+1, 0
			}
			if obj == len(objs) {
				return false, nil
			}
			sl.health = StripeHealth{Object: objs[obj].Name, Stripe: st}
			sl.rec = objs[obj].rec
			st++
			return true, nil
		},
		work: func(ctx context.Context, sl *stripeSlot) error {
			if sl.sc == nil {
				sl.sc = s.scratch()
			}
			sc := sl.sc
			t, err := s.repairStripe(ctx, &sl.health, sl.rec, repair, donor, start.whole, sc)
			s.meter.Record(repairbw.Scrub, t.cost)
			mu.Lock()
			defer mu.Unlock()
			rep.Cost.Add(t.cost)
			rep.BlocksLocal += t.local
			rep.BlocksImported += t.imported
			for node := range sc.fromRead {
				if sc.fromRead[node] {
					pass.clean[node]++
				}
				if sc.corrupt[node] {
					pass.corrupt[node]++
				}
			}
			return err
		},
		consume: func(sl *stripeSlot) error {
			rep.Stripes = append(rep.Stripes, sl.health)
			return nil
		},
	}
	err := p.run(ctx)
	s.releaseScratches(&p)
	if err != nil {
		return rep, err
	}
	s.renewRecords(objs, rep.Stripes, start)
	for _, h := range rep.Stripes {
		rep.BlocksRepaired += len(h.Repaired)
		rep.CorruptFrames += len(h.Corrupt)
		if !h.Recoverable {
			rep.Unrecoverable++
		} else if s.cfg.FirstFailure > 0 && h.Margin <= 0 {
			rep.AtRisk++
		}
	}
	s.noteScrubPass(pass)
	rep.QuarantinedNodes = s.Quarantined()
	s.mScrubRepaired.Add(int64(rep.BlocksRepaired))
	s.mScrubCorrupt.Add(int64(rep.CorruptFrames))
	s.mScrubUnrecov.Add(int64(rep.Unrecoverable))
	return rep, nil
}

// renewRecords re-proves coverage after a completed pass over objs, whose
// stripes are reported in order in stripes; start holds the epochs read
// before the pass's first block operation. A node that the pass read and
// verified or wrote in every stripe of an object — it is not Missing, or it
// is Repaired — and whose medium answers the same epoch at the end as at the
// start has held each of those blocks since: it gets into the object's
// record at that epoch. The new record is a copy of the old with those nodes
// added, installed under s.mu only if the entry is the one the pass visited,
// still with the record the pass read, and not being deleted; otherwise the
// pass's proof is dropped. A shell gets its first record this way.
func (s *Store) renewRecords(objs []entryRef, stripes []StripeHealth, start *availRecord) {
	end := s.epochs()
	held := make([]bool, s.g.Total) // per node: proved in every stripe so far
	lost := make([]bool, s.g.Total) // per node: not proved in this stripe
	for _, o := range objs {
		for node := range held {
			held[node] = start.whole[node] && end.whole[node] && start.epoch[node] == end.epoch[node]
		}
		for _, h := range stripes[:o.Stripes] {
			clear(lost)
			for _, node := range h.Missing {
				lost[node] = true
			}
			for _, node := range h.Repaired {
				lost[node] = false
			}
			for node, l := range lost {
				held[node] = held[node] && !l
			}
		}
		stripes = stripes[o.Stripes:]

		old := o.rec
		if old != nil && old.retired.Load() {
			continue // being deleted
		}
		var rec *availRecord
		for node, h := range held {
			if !h || (old != nil && old.whole[node] && old.epoch[node] == start.epoch[node]) {
				continue // nothing proved, or nothing new
			}
			if rec == nil {
				rec = &availRecord{epoch: make([]uint64, s.g.Total), whole: make([]bool, s.g.Total)}
				if old != nil {
					copy(rec.epoch, old.epoch)
					copy(rec.whole, old.whole)
				}
			}
			rec.epoch[node], rec.whole[node] = start.epoch[node], true
		}
		if rec == nil {
			continue
		}
		s.mu.Lock()
		if e := s.objects[o.Name]; e == o.at && e.rec == old && (old == nil || !old.retired.Load()) {
			e.rec = rec
		}
		s.mu.Unlock()
	}
}

// stripeTally is what one repairStripe call moved: the scrub-cause bill
// (every byte read to verify plus every byte written to repair), and how many
// of the rewritten blocks were rebuilt unaided or came from the donor.
type stripeTally struct {
	cost            repairbw.CostReport
	local, imported int
}

// repairStripe is the per-stripe body of every scrub: it verifies the stripe
// named in h (rec is its object's record), fills in h, and — when repair is
// set — rebuilds what is missing in sc's pooled workspace, rereading what the
// peel could not rebuild, then with donor's help if there is one, and writes
// it home; up[node] is whether node's device answered for its media as the
// pass began. sc.fromRead and sc.corrupt are left holding the stripe's
// per-node quarantine evidence.
func (s *Store) repairStripe(ctx context.Context, h *StripeHealth, rec *availRecord, repair bool, donor Donor, up []bool, sc *stripeScratch) (stripeTally, error) {
	var t stripeTally
	// A stripe the pipeline dispatched as the pass was being cancelled must
	// not start: a blank stripe reads nothing, so nothing below would notice.
	if err := ctx.Err(); err != nil {
		return t, err
	}
	h.Quarantined = s.Quarantined()
	for node := range sc.blocks {
		sc.blocks[node] = nil
		sc.fromRead[node], sc.corrupt[node] = false, false
		sc.unaided[node], sc.donated[node] = false, false
	}
	sc.keys.stripe(h.Object, h.Stripe)
	rec = rec.live()
	for node := range sc.blocks {
		if err := s.readNode(ctx, h, rec, node, sc, &t); err != nil {
			return t, err
		}
		if sc.blocks[node] == nil {
			h.Missing = append(h.Missing, node)
		}
	}
	if len(h.Missing) == 0 {
		h.Recoverable = true
		h.Margin = s.cfg.FirstFailure
		return t, nil
	}

	// The data nodes past the payload's last block hold zero padding, which
	// the repair knows as a Get knows it: a padding frame that is lost or
	// rotten is still missing and is rewritten, but its block is the zero
	// block, which neither the peel nor a donor has to supply.
	live := s.g.Data // data nodes from live on hold zero padding
	if obj, _, err := s.lookup(h.Object); err == nil {
		capacity := s.codec.Capacity()
		live = s.liveBlocks(min(obj.Size-h.Stripe*capacity, capacity))
		for _, node := range h.Missing {
			if node >= live && node < s.g.Data {
				sc.blocks[node] = s.zero
			}
		}
	}
	h.Recoverable = s.codec.RepairWith(sc.ws, sc.blocks) == nil
	if repair && !h.Recoverable {
		// A node dark for the sweep (a flap, a device mid-replacement) may
		// answer now: each missing node the peel did not rebuild and whose
		// frame was not rotten is read once more, before any donor is asked.
		for _, node := range h.Missing {
			if sc.blocks[node] == nil && !sc.corrupt[node] {
				if err := s.readNode(ctx, h, rec, node, sc, &t); err != nil {
					return t, err
				}
			}
		}
		n := len(h.Missing)
		h.Missing = slices.DeleteFunc(h.Missing, func(node int) bool { return sc.fromRead[node] })
		if len(h.Missing) < n {
			h.Recoverable = s.codec.ResumeRepair(sc.ws, sc.blocks) == nil
		}
		slices.Sort(h.Corrupt)
	}
	if s.cfg.FirstFailure > 0 {
		h.Margin = s.cfg.FirstFailure - len(h.Missing)
	}
	if !repair {
		return t, nil
	}
	for _, node := range h.Missing {
		sc.unaided[node] = sc.blocks[node] != nil
	}
	aided := donor != nil && !h.Recoverable
	if aided {
		// A lacking data block lands in its node's arena slot, which holds
		// nothing peeling reads; like a read block it is written home from it.
		sc.lacking = sc.lacking[:0]
		for node, b := range sc.blocks {
			if b != nil {
				continue
			}
			sc.lacking = append(sc.lacking, node)
			if up[node] && node < s.g.Data {
				sc.blocks[node] = sc.frame(s, node)
			}
		}
		if err := donor(ctx, h.Object, h.Stripe, sc.lacking, sc.blocks); err != nil {
			return t, err
		}
		for _, node := range sc.lacking {
			switch b := sc.blocks[node]; {
			case len(b) == 0:
				sc.blocks[node] = nil
			case len(b) != s.cfg.BlockSize:
				return t, fmt.Errorf("archive: donor block %q stripe %d node %d has %d bytes, want %d",
					h.Object, h.Stripe, node, len(b), s.cfg.BlockSize)
			default:
				sc.donated[node] = true
			}
		}
		h.Recoverable = s.codec.ResumeRepair(sc.ws, sc.blocks) == nil
	}
	// Even an unrecoverable stripe gets partial repair: every block the
	// peeling did reach is correct, and writing it back monotonically
	// shrinks the missing set — so when the transient unavailability that
	// defeated this pass clears, the stripe needs less to come back.
	var refused []int // blocks the home device refused, padding aside
	for _, node := range h.Missing {
		if sc.blocks[node] == nil {
			continue // peeling never reached it (or never needed to)
		}
		// Quarantined nodes are repaired too: the rewrite is what heals
		// at-rest damage, and the next pass's evidence decides readmission.
		var werr error
		sc.frameBuf, werr = s.writeFramedBuf(ctx, node, sc.keys.key(node), sc.blocks[node], sc.frameBuf)
		if werr != nil {
			if node < live || node >= s.g.Data {
				refused = append(refused, node)
			}
			continue // home device still dead; the next scrub retries
		}
		h.Repaired = append(h.Repaired, node)
		if sc.donated[node] {
			t.imported++
			continue
		}
		t.cost.BlocksWritten++
		t.cost.BytesWritten += s.frameSize()
		if sc.unaided[node] {
			t.local++
		}
	}
	if t.imported > 0 {
		s.meter.Record(repairbw.Federation, repairbw.CostReport{
			BlocksWritten: t.imported, BytesWritten: int64(t.imported) * s.frameSize()})
	}
	// The donor made the stripe whole in memory, but what the store now
	// holds reconstructs it only if the graph rebuilds the refused blocks.
	if aided && len(refused) > 0 && h.Recoverable {
		h.Recoverable = decode.New(s.g).Recoverable(refused)
	}
	return t, nil
}

// readNode reads and verifies node's frame of the stripe sc.keys names if
// the probe (rec is the stripe's live record) finds it: a verified block goes
// into sc.blocks, a rotten frame into h.Corrupt, the read onto t's bill. Only
// a cancelled read is an error; it is no evidence of a missing block.
func (s *Store) readNode(ctx context.Context, h *StripeHealth, rec *availRecord, node int, sc *stripeScratch, t *stripeTally) error {
	if !s.available(rec, node, &sc.keys) {
		return nil
	}
	framed, err := s.readFramed(ctx, node, sc.keys.key(node), sc.frame(s, node), nil)
	if errIsCtx(err) {
		return err
	}
	if err != nil {
		return nil // unreadable: the node stays missing
	}
	t.cost.BlocksRead++
	t.cost.BytesRead += int64(len(framed))
	// The payload aliases framed — the node's arena slot; the codec only
	// reads it.
	if b, ok := unframeBlock(framed); ok {
		sc.blocks[node], sc.fromRead[node] = b, true
		return nil
	}
	h.Corrupt = append(h.Corrupt, node)
	sc.corrupt[node] = true
	s.noteCorrupt(node)
	return nil
}
