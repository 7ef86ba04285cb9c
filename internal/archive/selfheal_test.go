package archive

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/device"
)

// midReadFailBackend fails a chosen device the moment the store first tries
// to read from it — after Available already said yes. This is the TOCTOU
// window every retrieval plan lives with: a drive that answered the
// availability probe can be dead by the time its block is fetched.
type midReadFailBackend struct {
	Backend
	devs    device.Array
	victim  int
	armed   bool
	tripped bool
}

func (b *midReadFailBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	if b.armed && node == b.victim {
		b.armed = false
		b.tripped = true
		b.devs[b.victim].Fail()
	}
	return ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

// TestGetMidReadDeviceFailure plants a device failure between the
// availability check and the read: the planned block set comes up short, and
// Get must degrade to peeling — falling back to the remaining reachable
// blocks and reconstructing the lost one — and still return bit-exact data.
func TestGetMidReadDeviceFailure(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devs := device.NewArray(g.Total)
	mrf := &midReadFailBackend{Backend: NewArrayBackend(devs), devs: devs, victim: 0}
	s, err := NewWithBackend(g, mrf, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(1500, 3)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}

	mrf.armed = true
	got, stats, err := s.GetCtx(ctx, "obj")
	if err != nil {
		t.Fatalf("Get under mid-read failure: %v (stats %+v)", err, stats)
	}
	if !mrf.tripped {
		t.Fatal("trap never fired; node 0 was not in the retrieval plan")
	}
	if !bytes.Equal(got, data) {
		t.Error("mid-read failure corrupted the returned data")
	}
	if devs[0].State() != device.Failed {
		t.Fatal("victim device should be failed")
	}
	// The victim's block was never read; decoding needed a re-plan around it
	// and reconstruction from parity — degradation, not denial. The re-plan
	// adds parity to the 23 live data blocks still read, and no sweep reads
	// the rest of the stripe.
	live := (len(data) + 63) / 64
	if stats.BlocksRead <= live-1 || stats.BlocksRead >= g.Total-(g.Data-live)-1 {
		t.Errorf("BlocksRead = %d; the re-plan should read beyond the %d live blocks still readable, and no sweep", stats.BlocksRead, live-1)
	}

	// The stripe now reports the dead node missing but recoverable, and a
	// repair scrub cannot repopulate it until the drive is replaced.
	rep, err := s.ScrubCtx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rep.Stripes {
		if !h.Recoverable {
			t.Errorf("stripe %d unrecoverable after one device loss", h.Stripe)
		}
		if len(h.Missing) == 0 {
			t.Errorf("stripe %d reports nothing missing with a failed device", h.Stripe)
		}
	}
}

// stripeFailBackend fails a chosen device when the store first probes a block
// of one stripe — between two stripes of a read — and counts the reads of the
// device tried before and after that.
type stripeFailBackend struct {
	Backend
	devs    device.Array
	victim  int
	at      []byte // key prefix of the stripe the device fails at ("obj/2/")
	tripped bool
	reads   [2]int // reads of the victim tried before and after it failed
}

func (b *stripeFailBackend) Available(node int, key []byte) bool {
	if !b.tripped && bytes.HasPrefix(key, b.at) {
		b.tripped = true
		b.devs[b.victim].Fail()
	}
	return b.Backend.Available(node, key)
}

// MediaEpoch answers not ok until the device has failed, so that the probe
// of the stripe it fails at reaches Available.
func (b *stripeFailBackend) MediaEpoch(node int) (uint64, bool) {
	if !b.tripped {
		return 0, false
	}
	return b.Backend.MediaEpoch(node)
}

func (b *stripeFailBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	if node == b.victim {
		if b.tripped {
			b.reads[1]++
		} else {
			b.reads[0]++
		}
	}
	return ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

// TestGetStreamPlansAroundDeviceFailure fails a data device between stripes 1
// and 2 of a width-1 GetStream that already runs with four data devices
// failed: the stripes before read it, the stripes after plan around it —
// never trying a read of it — and the stream's GetStats equal the goldens
// captured before the planner kept its last plan.
func TestGetStreamPlansAroundDeviceFailure(t *testing.T) {
	g := benchStore(t).Graph()
	devs := device.NewArray(g.Total)
	sb := &stripeFailBackend{Backend: NewArrayBackend(devs), devs: devs, victim: 9, at: []byte("obj/2/")}
	s, err := NewWithBackend(g, sb, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(4*s.Layout().StripeCapacity, 5)
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{0, 5, 17, 33} {
		devs[node].Fail()
	}
	var out bytes.Buffer
	_, stats, err := s.GetStream(ctx, "obj", &out, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Error("payload mismatch")
	}
	if sb.reads != [2]int{2, 0} {
		t.Errorf("victim reads before/after its failure = %v, want [2 0]", sb.reads)
	}
	const want = "{DevicesAccessed:49 BlocksRead:192 BlocksRepaired:18 CorruptBlocks:0 ReadRepairs:0 Retries:0 Repair:{BlocksRead:0 BlocksWritten:0 BytesRead:0 BytesWritten:0}}"
	if got := fmt.Sprintf("%+v", stats); got != want {
		t.Errorf("stats\n got %s\nwant %s", got, want)
	}
}

// flakyBackend fails every read of one node with ErrTransient a fixed
// number of times before letting it through — the shape of a network blip
// or an injector's transient read error.
type flakyBackend struct {
	Backend
	node     int
	failures int
	seen     int
}

func (b *flakyBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	if node == b.node && b.seen < b.failures {
		b.seen++
		return nil, fmt.Errorf("flaky read of node %d: %w", node, ErrTransient)
	}
	return ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

// TestGetRetriesTransientErrors: a read that fails transiently within the
// retry budget is retried and succeeds without touching parity; one that
// exhausts the budget degrades to reconstruction. Either way the bytes are
// exact.
func TestGetRetriesTransientErrors(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		failures int
	}{
		{"within budget", transientRetries},
		{"past budget", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			devs := device.NewArray(g.Total)
			fb := &flakyBackend{Backend: NewArrayBackend(devs), node: 1}
			s, err := NewWithBackend(g, fb, Config{BlockSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			data := payload(900, 4)
			if err := s.PutCtx(ctx, "obj", data); err != nil {
				t.Fatal(err)
			}
			fb.failures = tc.failures

			got, stats, err := s.GetCtx(ctx, "obj")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Error("transient faults corrupted the returned data")
			}
			if stats.Retries == 0 {
				t.Error("no retries recorded against a flaky backend")
			}
			if v := s.Metrics().Counter("archive.read.retries").Value(); v == 0 {
				t.Error("archive.read.retries metric not fed")
			}
		})
	}
}
