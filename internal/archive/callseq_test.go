package archive

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tornado/internal/device"
	"tornado/internal/graph"
)

// recordingBackend logs every data-plane call the store makes, in order:
// "R7" a read of node 7, "W7" a write, "D7" a delete, with "!" appended when
// the backend returned an error. Runs of one successful op over consecutive
// nodes are folded ("R0-47").
type recordingBackend struct {
	Backend
	ops []string

	run         string // op of the open run
	first, last int
}

func (b *recordingBackend) note(op string, node int, err error) {
	if err != nil {
		b.flush()
		b.ops = append(b.ops, fmt.Sprintf("%s%d!", op, node))
		return
	}
	if op == b.run && node == b.last+1 {
		b.last = node
		return
	}
	b.flush()
	b.run, b.first, b.last = op, node, node
}

func (b *recordingBackend) flush() {
	switch {
	case b.run == "":
	case b.first == b.last:
		b.ops = append(b.ops, fmt.Sprintf("%s%d", b.run, b.first))
	default:
		b.ops = append(b.ops, fmt.Sprintf("%s%d-%d", b.run, b.first, b.last))
	}
	b.run = ""
}

func (b *recordingBackend) Read(ctx context.Context, node int, key []byte) ([]byte, error) {
	return b.ReadInto(ctx, node, key, nil)
}

func (b *recordingBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	framed, err := ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
	b.note("R", node, err)
	return framed, err
}

func (b *recordingBackend) Write(ctx context.Context, node int, key, data []byte) error {
	err := b.Backend.Write(ctx, node, key, data)
	b.note("W", node, err)
	return err
}

func (b *recordingBackend) Delete(ctx context.Context, node int, key []byte) error {
	err := b.Backend.Delete(ctx, node, key)
	b.note("D", node, err)
	return err
}

// corruptFrame flips one bit of the stored frame of obj stripe 0 at node.
func corruptFrame(t *testing.T, devs device.Array, node int) {
	t.Helper()
	key := blockKey("obj", 0, node)
	framed, err := devs[node].Read(key)
	if err != nil {
		t.Fatal(err)
	}
	framed[len(framed)-1] ^= 0x40
	if err := devs[node].Write(key, framed); err != nil {
		t.Fatal(err)
	}
}

// checksAbove is every check that node's block feeds, at every level: with
// them gone, nothing but node's own frame gives back its block.
func checksAbove(g *graph.Graph, node int) []int {
	var above []int
	for next := []int{node}; len(next) > 0; next = next[1:] {
		for _, p := range g.Parents(next[0]) {
			if !slices.Contains(above, int(p)) {
				above = append(above, int(p))
				next = append(next, int(p))
			}
		}
	}
	return above
}

// callseqCases are six scripted stripes: one damage pattern or payload size
// each, with what one ReadStripe (ops, stats) and one repairing scrub
// (scrubOps, scrubReport) of the stripe do to the backend and report. The
// first five are full stripes (their payload is StripeCapacity-7 bytes);
// size sets another payload length.
type callseqCase struct {
	name        string
	size        int
	damage      func(t *testing.T, devs device.Array, fb *flakyBackend)
	ops         string
	stats       string
	scrubOps    string
	scrubReport string
}

var callseqCases = []callseqCase{
	{
		name:        "healthy",
		damage:      func(*testing.T, device.Array, *flakyBackend) {},
		ops:         "R0-47",
		stats:       "{DevicesAccessed:48 BlocksRead:48 BlocksRepaired:0 CorruptBlocks:0 ReadRepairs:0 Retries:0 Repair:{BlocksRead:0 BlocksWritten:0 BytesRead:0 BytesWritten:0}}",
		scrubOps:    "R0-95",
		scrubReport: "{Stripes:[{Object:obj Stripe:0 Missing:[] Corrupt:[] Quarantined:[] Recoverable:true Margin:0 Repaired:[]}] BlocksRepaired:0 CorruptFrames:0 AtRisk:0 Unrecoverable:0 QuarantinedNodes:[] Cost:{BlocksRead:96 BlocksWritten:0 BytesRead:6528 BytesWritten:0}}",
	},
	{
		name: "four data devices failed",
		damage: func(_ *testing.T, devs device.Array, _ *flakyBackend) {
			for _, node := range []int{0, 5, 17, 33} {
				devs[node].Fail()
			}
		},
		ops:         "R1-4 R6-16 R18-32 R34-47 R50 R54 R57 R59",
		stats:       "{DevicesAccessed:48 BlocksRead:48 BlocksRepaired:4 CorruptBlocks:0 ReadRepairs:0 Retries:0 Repair:{BlocksRead:0 BlocksWritten:0 BytesRead:0 BytesWritten:0}}",
		scrubOps:    "R1-4 R6-16 R18-32 R34-95 W0! W5! W17! W33!",
		scrubReport: "{Stripes:[{Object:obj Stripe:0 Missing:[0 5 17 33] Corrupt:[] Quarantined:[] Recoverable:true Margin:0 Repaired:[]}] BlocksRepaired:0 CorruptFrames:0 AtRisk:0 Unrecoverable:0 QuarantinedNodes:[] Cost:{BlocksRead:92 BlocksWritten:0 BytesRead:6256 BytesWritten:0}}",
	},
	{
		name: "corrupt data frame",
		damage: func(t *testing.T, devs device.Array, _ *flakyBackend) {
			corruptFrame(t, devs, 9)
		},
		// The plan meets the rot at node 9 and re-plans around it: the
		// other 47 data blocks stay read and check 49 rebuilds node 9.
		ops:         "R0-47 R49 W9",
		stats:       "{DevicesAccessed:49 BlocksRead:49 BlocksRepaired:1 CorruptBlocks:1 ReadRepairs:1 Retries:0 Repair:{BlocksRead:1 BlocksWritten:1 BytesRead:68 BytesWritten:68}}",
		scrubOps:    "R0-95 W9",
		scrubReport: "{Stripes:[{Object:obj Stripe:0 Missing:[9] Corrupt:[9] Quarantined:[] Recoverable:true Margin:0 Repaired:[9]}] BlocksRepaired:1 CorruptFrames:1 AtRisk:0 Unrecoverable:0 QuarantinedNodes:[] Cost:{BlocksRead:96 BlocksWritten:1 BytesRead:6528 BytesWritten:68}}",
	},
	{
		name: "blank replaced drive",
		damage: func(_ *testing.T, devs device.Array, _ *flakyBackend) {
			devs[21].Fail()
			devs[21].Replace()
		},
		ops:         "R0-20 R22-47 R56 W21",
		stats:       "{DevicesAccessed:48 BlocksRead:48 BlocksRepaired:1 CorruptBlocks:0 ReadRepairs:1 Retries:0 Repair:{BlocksRead:0 BlocksWritten:1 BytesRead:0 BytesWritten:68}}",
		scrubOps:    "R0-20 R22-95 W21",
		scrubReport: "{Stripes:[{Object:obj Stripe:0 Missing:[21] Corrupt:[] Quarantined:[] Recoverable:true Margin:0 Repaired:[21]}] BlocksRepaired:1 CorruptFrames:0 AtRisk:0 Unrecoverable:0 QuarantinedNodes:[] Cost:{BlocksRead:95 BlocksWritten:1 BytesRead:6460 BytesWritten:68}}",
	},
	{
		// Every check above node 1 is gone, a level-2 check is rotten, and
		// node 1 errors past the retry budget. The re-plan finds no way
		// around node 1, so node 1 gets its price back and is asked once
		// more: it answers, and the plan is read with no parity and no
		// read-repair — the rotted check is never met. The scrub's sweep
		// cannot rebuild the stripe without node 1, so the visit reads node
		// 1 once more: it answers, the peel resumes and rebuilds check 75,
		// which is written back, and only the dead checks stay missing.
		name: "node 1 answers on retry",
		damage: func(t *testing.T, devs device.Array, fb *flakyBackend) {
			for _, node := range checksAbove(benchStore(t).Graph(), 1) {
				devs[node].Fail()
			}
			corruptFrame(t, devs, 75)
			fb.failures = transientRetries + 1
		},
		ops:         "R0 R1! R1! R1! R2-47 R1",
		stats:       "{DevicesAccessed:48 BlocksRead:48 BlocksRepaired:0 CorruptBlocks:0 ReadRepairs:0 Retries:2 Repair:{BlocksRead:0 BlocksWritten:0 BytesRead:0 BytesWritten:0}}",
		scrubOps:    "R0 R1! R1! R1! R2-56 R58-60 R63-72 R74-75 R78 R81 R87 R1 W57! W61! W62! W73! W75 W76! W77! W79! W80! W82! W83! W84! W85! W86! W88! W89! W90! W91! W92! W93! W94! W95!",
		scrubReport: "{Stripes:[{Object:obj Stripe:0 Missing:[57 61 62 73 75 76 77 79 80 82 83 84 85 86 88 89 90 91 92 93 94 95] Corrupt:[75] Quarantined:[] Recoverable:true Margin:0 Repaired:[75]}] BlocksRepaired:1 CorruptFrames:1 AtRisk:0 Unrecoverable:0 QuarantinedNodes:[] Cost:{BlocksRead:75 BlocksWritten:1 BytesRead:5100 BytesWritten:68}}",
	},
	{
		// A 1,017-byte payload fills data blocks 0-15; 16-47 are zero
		// padding. The read knows them and fetches the live blocks alone;
		// the scrub still reads and verifies every frame the Put wrote.
		name:        "short stripe",
		size:        16*64 - 7,
		damage:      func(*testing.T, device.Array, *flakyBackend) {},
		ops:         "R0-15",
		stats:       "{DevicesAccessed:16 BlocksRead:16 BlocksRepaired:0 CorruptBlocks:0 ReadRepairs:0 Retries:0 Repair:{BlocksRead:0 BlocksWritten:0 BytesRead:0 BytesWritten:0}}",
		scrubOps:    "R0-95",
		scrubReport: "{Stripes:[{Object:obj Stripe:0 Missing:[] Corrupt:[] Quarantined:[] Recoverable:true Margin:0 Repaired:[]}] BlocksRepaired:0 CorruptFrames:0 AtRisk:0 Unrecoverable:0 QuarantinedNodes:[] Cost:{BlocksRead:96 BlocksWritten:0 BytesRead:6528 BytesWritten:0}}",
	},
}

// readOnlyBackend is the one test backend without a ReadInto: embedding the
// interface hides whatever the wrapped backend offers, so a store over it
// reads through ReaderIntoOf's adapter.
type readOnlyBackend struct{ Backend }

// callseqStore puts one stripe ("obj") of size bytes — StripeCapacity-7
// when size is 0 — on a recording backend over a flaky one (node 1, no
// failures yet) and hands back every layer. With adapter set the store sees
// the stack through a readOnlyBackend: every read arrives as Read, in a
// caller-owned slice, none in the scratch's arena.
func callseqStore(t *testing.T, adapter bool, size int) (*Store, []byte, device.Array, *flakyBackend, *recordingBackend) {
	t.Helper()
	g := benchStore(t).Graph()
	devs := device.NewArray(g.Total)
	fb := &flakyBackend{Backend: NewArrayBackend(devs), node: 1}
	rec := &recordingBackend{Backend: fb}
	var backend Backend = rec
	if adapter {
		backend = readOnlyBackend{rec}
	}
	s, err := NewWithBackend(g, backend, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, native := s.reader.(*recordingBackend); native == adapter {
		t.Fatalf("store reads through %T with adapter=%v", s.reader, adapter)
	}
	if size == 0 {
		size = s.Layout().StripeCapacity - 7
	}
	data := payload(size, 11)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	return s, data, devs, fb, rec
}

// TestGetStripeBackendCallSequence pins what one stripe read does to the
// backend: which blocks it reads, which it writes back, in which order, and
// the GetStats it reports. A change to planning, decoding or scratch
// ownership must leave them alone. (The chaos soak's seeded schedule
// diverges as soon as one read-repair write moves.)
// Every backend in the stack has a ReadInto, so this is the production path:
// frames land in the scratch's arena.
func TestGetStripeBackendCallSequence(t *testing.T) {
	for _, tc := range callseqCases {
		t.Run(tc.name, func(t *testing.T) { tc.readStripe(t, false) })
	}
}

func (tc callseqCase) readStripe(t *testing.T, adapter bool) {
	s, data, devs, fb, rec := callseqStore(t, adapter, tc.size)
	tc.damage(t, devs, fb)
	rec.ops, rec.run = nil, ""

	got, stats, err := s.ReadStripe(context.Background(), "obj", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Error("payload mismatch")
	}
	rec.flush()
	if ops := strings.Join(rec.ops, " "); ops != tc.ops {
		t.Errorf("backend calls\n got %s\nwant %s", ops, tc.ops)
	}
	if st := fmt.Sprintf("%+v", stats); st != tc.stats {
		t.Errorf("stats\n got %s\nwant %s", st, tc.stats)
	}
}

// TestScrubBackendCallSequence pins what a repairing scrub does to the
// backend on the same six stripes, and the ScrubReport it returns: the
// per-stripe repair body must read, rebuild and write exactly these blocks
// in this order. (The chaos soak schedules its faults by backend op.)
func TestScrubBackendCallSequence(t *testing.T) {
	for _, tc := range callseqCases {
		t.Run(tc.name, func(t *testing.T) { tc.scrub(t, false) })
	}
}

func (tc callseqCase) scrub(t *testing.T, adapter bool) {
	s, data, devs, fb, rec := callseqStore(t, adapter, tc.size)
	tc.damage(t, devs, fb)
	rec.ops, rec.run = nil, ""

	rep, err := s.ScrubCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	rec.flush()
	if ops := strings.Join(rec.ops, " "); ops != tc.scrubOps {
		t.Errorf("backend calls\n got %s\nwant %s", ops, tc.scrubOps)
	}
	if r := fmt.Sprintf("%+v", rep); r != tc.scrubReport {
		t.Errorf("report\n got %s\nwant %s", r, tc.scrubReport)
	}
	fb.failures = 0 // what the scrub left behind reads back exact
	if got, _, err := s.GetCtx(ctx, "obj"); err != nil || string(got) != string(data) {
		t.Errorf("Get after the scrub: %v, exact=%v", err, string(got) == string(data))
	}
}

// TestReadAdapterMatchesReadInto is the differential test of the Read
// adapter, the path a backend without ReadInto takes: on the six scripted
// stripes, a store that is handed caller-owned frames must return the same
// payload, GetStats, repair bill and scrub report through the same backend
// calls as the one whose frames land in its arena — both against one golden.
func TestReadAdapterMatchesReadInto(t *testing.T) {
	for _, tc := range callseqCases {
		t.Run(tc.name, func(t *testing.T) {
			tc.readStripe(t, true)
			tc.scrub(t, true)
		})
	}
}

// TestBadFrameReplansAroundIt: a full stripe whose plan meets one bad data
// frame — rotten on disk, or unreadable past the retry budget — re-plans
// around that one node and reads only what the new plan adds: the 47 other
// data blocks stay read, and one parity block rebuilds the bad one, which
// GetStats counts as repaired. No frame is read twice, and no read reaches
// for the rest of the stripe.
func TestBadFrameReplansAroundIt(t *testing.T) {
	g := benchStore(t).Graph()
	for _, bad := range []int{0, 1, 9, g.Data - 1} {
		for _, mode := range []string{"rotten", "unreadable"} {
			t.Run(fmt.Sprintf("%s node %d", mode, bad), func(t *testing.T) {
				s, data, devs, fb, rec := callseqStore(t, false, 0)
				wantRead := g.Data + 1
				if mode == "rotten" {
					corruptFrame(t, devs, bad)
				} else {
					fb.node, fb.failures = bad, transientRetries+1
					wantRead-- // the failed attempts read nothing
				}
				rec.ops, rec.run = nil, ""
				got, stats, err := s.ReadStripe(ctx, "obj", 0)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(data) {
					t.Error("payload mismatch")
				}
				rec.flush()
				reads := map[int]int{}
				for _, op := range rec.ops {
					if op[0] != 'R' || strings.HasSuffix(op, "!") {
						continue
					}
					lo, hi := opNodes(t, op)
					for node := lo; node <= hi; node++ {
						reads[node]++
					}
				}
				for node, n := range reads {
					if n > 1 {
						t.Errorf("node %d read %d times (ops %v)", node, n, rec.ops)
					}
				}
				if stats.BlocksRead != wantRead || len(reads) != wantRead {
					t.Errorf("%d blocks read (%d distinct; ops %v), want %d: the plan's data blocks and one check",
						stats.BlocksRead, len(reads), rec.ops, wantRead)
				}
				if stats.BlocksRepaired != 1 {
					t.Errorf("BlocksRepaired = %d, want 1: the bad data block is rebuilt, not read", stats.BlocksRepaired)
				}
			})
		}
	}
}
