package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tornado/internal/device"
)

// wipedPair returns two stores over the same graph holding the same object
// ("obj", the given number of stripes): ref intact, s with every device
// failed and replaced — metadata there, media blank. s's backend is the
// returned hook, through which a test sees every block written to it.
func wipedPair(t *testing.T, stripes int) (s, ref *Store, hook *writeHook, data []byte) {
	t.Helper()
	cfg := Config{BlockSize: 32}
	ref = testStore(t, cfg)
	devs := device.NewArray(ref.Graph().Total)
	hook = &writeHook{Backend: NewArrayBackend(devs)}
	s, err := NewWithBackend(ref.Graph(), hook, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.devices = devs
	data = payload(stripes*ref.Layout().StripeCapacity-5, 7)
	for _, st := range []*Store{s, ref} {
		if err := st.PutCtx(ctx, "obj", data); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range devs {
		d.Fail()
		d.Replace()
	}
	return s, ref, hook, data
}

// writeHook is a backend that tells the test which stripe each write is for.
// Reads go straight through, on the inner backend's own read path.
type writeHook struct {
	Backend
	mu      sync.Mutex
	onWrite func(stripe int) // called before the write goes through
}

func (b *writeHook) Write(ctx context.Context, node int, key, data []byte) error {
	b.mu.Lock()
	f := b.onWrite
	b.mu.Unlock()
	if f != nil {
		parts := strings.Split(string(key), "/") // name/stripe/node
		st, _ := strconv.Atoi(parts[len(parts)-2])
		f(st)
	}
	return b.Backend.Write(ctx, node, key, data)
}

func (b *writeHook) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	return ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

// blockFetch fetches one data block of a stripe into dst, or returns nil
// when it has none.
type blockFetch func(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error)

// blockDonor is the Donor that fetches a stripe's lacking data blocks one at
// a time, each into the pass's buffer for it; data is the graph's data-node
// count.
func blockDonor(data int, fetch blockFetch) Donor {
	return func(ctx context.Context, name string, stripe int, lacking []int, blocks [][]byte) error {
		for _, node := range lacking {
			if node >= data {
				break
			}
			b, err := fetch(ctx, name, stripe, node, blocks[node])
			if err != nil {
				return err
			}
			if b != nil {
				blocks[node] = b
			}
		}
		return nil
	}
}

// refDonor donates ref's copy of a block, read into the pass's dst.
func refDonor(ref *Store) blockFetch {
	return func(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error) {
		return ref.ReadBlockCtx(ctx, name, stripe, node, dst)
	}
}

// TestRepairFromRebuildsWipedStore: a blank store comes back from a donor
// that is asked for its data blocks and nothing else, once each; the checks
// are re-encoded at home, every rebuilt block is written once, and the
// store then holds exactly what an untouched one does.
func TestRepairFromRebuildsWipedStore(t *testing.T) {
	allowWidth(t, 4)
	const stripes = 6
	s, ref, _, data := wipedPair(t, stripes)
	var mu sync.Mutex
	asked := map[string]int{}
	rep, err := s.RepairFrom(context.Background(), blockDonor(s.Graph().Data, func(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error) {
		mu.Lock()
		asked[fmt.Sprintf("%s/%d/%d", name, stripe, node)]++
		mu.Unlock()
		return ref.ReadBlockCtx(ctx, name, stripe, node, dst)
	}))
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	if len(asked) != stripes*g.Data {
		t.Errorf("donor asked for %d distinct blocks, want the %d data blocks", len(asked), stripes*g.Data)
	}
	for key, n := range asked {
		var node int
		fmt.Sscanf(key[strings.LastIndex(key, "/")+1:], "%d", &node)
		if n != 1 || node >= g.Data {
			t.Errorf("donor asked for %s %d times", key, n)
		}
	}
	if rep.BlocksImported != stripes*g.Data || rep.BlocksLocal != 0 || rep.BlocksRepaired != stripes*g.Total || rep.Unrecoverable != 0 {
		t.Errorf("report: imported %d local %d repaired %d unrecoverable %d", rep.BlocksImported, rep.BlocksLocal, rep.BlocksRepaired, rep.Unrecoverable)
	}
	// Imports are federation traffic; only the re-encoded checks are the scrub's.
	checks := stripes * (g.Total - g.Data)
	if rep.Cost.BlocksWritten != checks || rep.Cost.BlocksRead != 0 {
		t.Errorf("scrub-cause cost %+v, want %d check writes and no reads", rep.Cost, checks)
	}
	for i, h := range rep.Stripes {
		if h.Stripe != i || !h.Recoverable || len(h.Repaired) != g.Total {
			t.Errorf("stripe %d reported as %+v", i, h)
		}
	}
	got, want := storedBlocks(t, s, "obj"), storedBlocks(t, ref, "obj")
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("stored block %d differs from the intact store's", i)
		}
	}
	if out, _, err := s.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(out, data) {
		t.Errorf("Get after repair: %v", err)
	}
}

// TestRepairFromDonorDst: a donor that reads each block into the pass's dst
// and returns an alias of it, and one that returns a slice of its own, leave
// the same bytes stored, the same report and the same follow-up scrub report,
// at width 2 (under -race, a block landing in a slot another stripe still
// read from would be a reported race). A block of the wrong size ends the
// pass with its error either way.
func TestRepairFromDonorDst(t *testing.T) {
	old := runtime.GOMAXPROCS(2) // RepairFrom's width is min(4, GOMAXPROCS)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	const stripes = 6
	donor := func(s, ref *Store, into bool, trim int) Donor {
		return blockDonor(s.Graph().Data, func(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error) {
			if len(dst) != 0 || cap(dst) != s.FrameSize() {
				return nil, fmt.Errorf("dst has len %d, cap %d; want an empty frame of %d", len(dst), cap(dst), s.FrameSize())
			}
			if !into {
				dst = nil
			}
			b, err := ref.ReadBlockCtx(ctx, name, stripe, node, dst)
			if err != nil {
				return nil, err
			}
			if into && &b[0] != &dst[:cap(dst)][frameOverhead] {
				return nil, errors.New("the block read into dst does not alias it")
			}
			return b[:len(b)-trim], nil
		})
	}
	run := func(into bool) (DonorReport, ScrubReport, [][]byte) {
		s, ref, _, data := wipedPair(t, stripes)
		rep, err := s.RepairFrom(ctx, donor(s, ref, into, 0))
		if err != nil {
			t.Fatalf("into dst %v: %v", into, err)
		}
		after, err := s.ScrubCtx(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		if out, _, err := s.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(out, data) {
			t.Errorf("into dst %v: Get after repair: %v", into, err)
		}
		return rep, after, storedDevBlocks(s, "obj")
	}
	intoRep, intoAfter, intoStored := run(true)
	ownRep, ownAfter, ownStored := run(false)
	if intoRep.BlocksImported == 0 || intoAfter.Unrecoverable != 0 {
		t.Fatalf("the repair imported %d blocks and left %d stripes unrecoverable", intoRep.BlocksImported, intoAfter.Unrecoverable)
	}
	if !reflect.DeepEqual(intoRep, ownRep) {
		t.Errorf("reports differ:\ninto dst %+v\nown      %+v", intoRep, ownRep)
	}
	if !reflect.DeepEqual(intoAfter, ownAfter) {
		t.Errorf("follow-up scrub reports differ:\ninto dst %+v\nown      %+v", intoAfter, ownAfter)
	}
	if !reflect.DeepEqual(intoStored, ownStored) {
		t.Error("stored blocks differ")
	}
	for _, into := range []bool{true, false} {
		s, ref, _, _ := wipedPair(t, stripes)
		_, err := s.RepairFrom(ctx, donor(s, ref, into, 1))
		if want := fmt.Sprintf("has %d bytes, want %d", s.cfg.BlockSize-1, s.cfg.BlockSize); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("into dst %v: a short donor block ends the pass with %v, want %q", into, err, want)
		}
	}
}

// TestRepairFromHeldHeadStripe forces the schedule a serial pass cannot
// survive: the donor keeps stripe 0 waiting until a block of a later stripe
// has been written home. The pass must run later stripes meanwhile, and still
// report in stripe order.
func TestRepairFromHeldHeadStripe(t *testing.T) {
	allowWidth(t, 2)
	s, ref, hook, data := wipedPair(t, 5)
	later := make(chan struct{})
	var once sync.Once
	hook.onWrite = func(stripe int) {
		if stripe > 0 {
			once.Do(func() { close(later) })
		}
	}
	donate := refDonor(ref)
	rep, err := s.RepairFrom(context.Background(), blockDonor(s.Graph().Data, func(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error) {
		if stripe == 0 {
			select {
			case <-later:
			case <-time.After(20 * time.Second):
				return nil, errors.New("stripe 0 was never overtaken: the pass is serial")
			}
		}
		return donate(ctx, name, stripe, node, dst)
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range rep.Stripes {
		if h.Stripe != i || !h.Recoverable {
			t.Errorf("stripe %d reported as %+v", i, h)
		}
	}
	if len(rep.Stripes) != 5 {
		t.Errorf("%d stripes reported, want 5", len(rep.Stripes))
	}
	if out, _, err := s.GetCtx(ctx, "obj"); err != nil || !bytes.Equal(out, data) {
		t.Errorf("Get after repair: %v", err)
	}
}

// TestRepairFromDonorError: the donor fails on stripe bad while the stripes
// behind it are in flight. The pass returns that error, touches no stripe
// beyond the in-flight window — no donor call, no write — reports the imports
// it did make, and leaves no goroutine behind.
func TestRepairFromDonorError(t *testing.T) {
	const stripes, bad, width = 16, 5, 4
	allowWidth(t, width)
	before := runtime.NumGoroutine()
	s, ref, hook, _ := wipedPair(t, stripes)
	boom := errors.New("boom")
	var mu sync.Mutex
	touched := map[int]bool{}
	touch := func(stripe int) {
		mu.Lock()
		touched[stripe] = true
		mu.Unlock()
	}
	hook.onWrite = touch
	behind := make(chan struct{}) // closed once a stripe after bad is in flight
	var once sync.Once
	donate := refDonor(ref)
	rep, err := s.RepairFrom(context.Background(), blockDonor(s.Graph().Data, func(ctx context.Context, name string, stripe, node int, dst []byte) ([]byte, error) {
		touch(stripe)
		switch {
		case stripe == bad:
			<-behind
			return nil, boom
		case stripe > bad:
			once.Do(func() { close(behind) })
			<-ctx.Done() // only the failure of stripe bad ends these
			return nil, ctx.Err()
		}
		return donate(ctx, name, stripe, node, dst)
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for st := range touched {
		if st >= bad+width {
			t.Errorf("stripe %d touched, beyond the window behind failed stripe %d at width %d", st, bad, width)
		}
	}
	if len(rep.Stripes) != bad {
		t.Errorf("%d stripes reported, want the %d before the failure", len(rep.Stripes), bad)
	}
	if want := bad * s.Graph().Data; rep.BlocksImported != want {
		t.Errorf("imports = %d on the error return, want %d", rep.BlocksImported, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the pass, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestRepairFromMatchesScrub: with no donor the pipelined pass is the
// repairing scrub — same report, same bytes stored — on a store with failed
// devices, blank replacements and a rotted frame.
func TestRepairFromMatchesScrub(t *testing.T) {
	allowWidth(t, 4)
	ctx := context.Background()
	damaged := func() *Store {
		s := testStore(t, Config{BlockSize: 32})
		if err := s.PutCtx(ctx, "a", payload(3000, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutCtx(ctx, "b", payload(5000, 2)); err != nil {
			t.Fatal(err)
		}
		devs := s.Devices()
		devs[1].Fail()
		for _, node := range []int{3, 60} {
			devs[node].Fail()
			devs[node].Replace()
		}
		if err := devs[5].Write(blockKey("b", 1, 5), []byte("bit rot")); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, piped := damaged(), damaged()
	want, err := serial.ScrubCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := piped.RepairFrom(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.BlocksRepaired == 0 || want.CorruptFrames != 1 {
		t.Fatalf("scrub repaired %d blocks, saw %d corrupt frames", want.BlocksRepaired, want.CorruptFrames)
	}
	if !reflect.DeepEqual(got.ScrubReport, want) {
		t.Errorf("reports differ:\npiped  %+v\nserial %+v", got.ScrubReport, want)
	}
	if got.BlocksLocal != want.BlocksRepaired || got.BlocksImported != 0 {
		t.Errorf("local %d imported %d, want %d and 0", got.BlocksLocal, got.BlocksImported, want.BlocksRepaired)
	}
	serial.Devices()[1].Replace() // a failed device cannot be read back
	piped.Devices()[1].Replace()
	for _, name := range []string{"a", "b"} {
		a, b := storedDevBlocks(serial, name), storedDevBlocks(piped, name)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("object %q: stored blocks differ", name)
		}
	}
}

// storedDevBlocks is storedBlocks with absent blocks left nil.
func storedDevBlocks(s *Store, name string) [][]byte {
	obj, _ := s.Stat(name)
	var out [][]byte
	for st := 0; st < obj.Stripes; st++ {
		for node, dev := range s.Devices() {
			b, _ := dev.Read(blockKey(name, st, node))
			out = append(out, b)
		}
	}
	return out
}

// TestScrubAllocBudget is the allocation gate on the scrub stripe loop.
// Frames are read into the scratch's arena, so a verify-only stripe may cost
// nothing — one whole allocation per stripe already fails — and a stripe that
// rebuilds one block only what naming it in the report and storing it on the
// device cost (measured 0.1 and 4.2). A caller-owned frame per block read, the
// per-stripe block-pointer slice, the allocating codec.Repair and a fresh
// frame per rewrite — what scrubStripe cost before it shared the pooled stripe
// scratch — each trip it.
func TestScrubAllocBudget(t *testing.T) {
	ctx := context.Background()
	allocs := func(stripes int, repair bool, damage func(*Store)) float64 {
		s := benchStore(t)
		if err := s.PutCtx(ctx, "obj", payload(stripes*s.Layout().StripeCapacity, 1)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			damage(s)
			if _, err := s.ScrubCtx(ctx, repair); err != nil {
				t.Fatal(err)
			}
		})
	}
	slope := func(repair bool, damage func(*Store)) float64 {
		return (allocs(64, repair, damage) - allocs(8, repair, damage)) / (64 - 8)
	}
	verify := slope(false, func(*Store) {})
	if verify >= 1 {
		t.Errorf("verify-only scrub grows by %.1f allocs/stripe; a stripe read into the scratch's arena costs none", verify)
	}
	rebuild := slope(true, func(s *Store) {
		s.Devices()[21].Fail()
		s.Devices()[21].Replace()
	})
	if rebuild > 6 {
		t.Errorf("scrub rebuilding one block a stripe grows by %.1f allocs/stripe, over the budget of 6", rebuild)
	}
	t.Logf("allocs/stripe: verify-only %.1f, rebuilding one block %.1f", verify, rebuild)
}
