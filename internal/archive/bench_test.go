package archive

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"

	"tornado/internal/core"
	"tornado/internal/device"
)

func benchStore(b testing.TB) *Store {
	b.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(g, device.NewArray(g.Total), Config{BlockSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// streamCase is a store the read stripe loop runs on: the devices failed
// after the Put, whether they were then replaced and rebuilt by a repairing
// scrub, and how many Available calls one GetStream of its 64-stripe object
// makes. The object's availability record answers for every node that is
// still Online on the medium it was written to, or that a completed scrub
// pass rewrote or verified in full; only the other nodes are asked per key.
type streamCase struct {
	name     string
	failed   []int
	replaced bool
	probes   int64
}

// streamCases are the stores the read stripe loop is timed and gated on: all
// devices up, and the four data devices the call-sequence goldens fail, so
// every stripe is rebuilt and planned around them.
var streamCases = []streamCase{
	{name: "healthy", probes: 0},
	{name: "degraded", failed: []int{0, 5, 17, 33}, probes: 4 * 64},
}

// probeCounter counts the per-key availability probes — Available calls —
// the store makes of the backend it wraps.
type probeCounter struct {
	Backend
	probes atomic.Int64
}

func (p *probeCounter) Available(node int, key []byte) bool {
	p.probes.Add(1)
	return p.Backend.Available(node, key)
}

func (p *probeCounter) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	return ReaderIntoOf(p.Backend).ReadInto(ctx, node, key, dst)
}

// probedStream stores one 64-stripe object ("obj") over a probeCounter,
// fails tc's failed devices — then replaces them and runs a repairing scrub,
// if tc says so — and zeroes the count.
func probedStream(tb testing.TB, tc streamCase) (*Store, *probeCounter) {
	tb.Helper()
	g := benchStore(tb).Graph()
	devs := device.NewArray(g.Total)
	pc := &probeCounter{Backend: NewArrayBackend(devs)}
	s, err := NewWithBackend(g, pc, Config{BlockSize: 64})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.PutCtx(ctx, "obj", payload(64*s.Layout().StripeCapacity, 1)); err != nil {
		tb.Fatal(err)
	}
	for _, node := range tc.failed {
		devs[node].Fail()
	}
	if tc.replaced {
		for _, node := range tc.failed {
			devs[node].Replace()
		}
		if _, err := s.ScrubCtx(ctx, true); err != nil {
			tb.Fatal(err)
		}
	}
	pc.probes.Store(0)
	return s, pc
}

// BenchmarkGetStreamSequential is the streaming read stripe loop: one
// 64-stripe object per op through the sequential path, healthy and with four
// data devices failed; TestGetStreamAllocBudget gates its allocations per
// stripe and TestGetStreamProbeCount its Available calls, which probes/stripe
// reports.
func BenchmarkGetStreamSequential(b *testing.B) {
	for _, tc := range streamCases {
		b.Run(tc.name, func(b *testing.B) {
			s, pc := probedStream(b, tc)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.GetStream(ctx, "obj", io.Discard, WithParallelism(1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pc.probes.Load())/float64(64*b.N), "probes/stripe")
		})
	}
}

// TestGetStreamProbeCount pins how many Available calls a 64-stripe GetStream
// makes, healthy and degraded: one per failed device per stripe, where every
// read once probed all Total nodes (6,144 a call). Once the failed devices
// are replaced and a repairing scrub has rewritten every block on them, the
// renewed record answers for them too: none, on every later read.
func TestGetStreamProbeCount(t *testing.T) {
	repaired := streamCase{name: "repaired", failed: streamCases[1].failed, replaced: true, probes: 0}
	for _, tc := range append(slices.Clone(streamCases), repaired) {
		t.Run(tc.name, func(t *testing.T) {
			s, pc := probedStream(t, tc)
			for range 2 {
				if _, _, err := s.GetStream(ctx, "obj", io.Discard, WithParallelism(1)); err != nil {
					t.Fatal(err)
				}
				if got := pc.probes.Load(); got != tc.probes {
					t.Errorf("GetStream made %d Available calls, want %d", got, tc.probes)
				}
				pc.probes.Store(0)
			}
		})
	}
}

// TestGetStreamAllocBudget is the allocation gate on the read stripe loop.
// Frames are read into the scratch's arena, the payload is decoded into the
// slot's buffer, keys are rewritten in one []byte buffer and a degraded
// stripe's plan is the planner's stored one, so a width-1 GetStream, healthy
// or with four data devices failed, must not grow with the object at all:
// under one allocation per stripe as the slope between an 8- and a 64-stripe
// object, and the 64-stripe call, set-up included, under one per stripe too
// (it measures 9 in all, either way). A caller-owned frame per block, planning, decode,
// framing or key building re-growing a per-stripe allocation trips it (the
// Read adapter costs 48/stripe; a planner regression once measured 869,
// string keys 192).
func TestGetStreamAllocBudget(t *testing.T) {
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			s := benchStore(t)
			ctx := context.Background()
			for _, o := range []struct {
				name    string
				stripes int
			}{{"short", 8}, {"long", 64}} {
				if err := s.PutCtx(ctx, o.name, payload(o.stripes*s.Layout().StripeCapacity, 1)); err != nil {
					t.Fatal(err)
				}
			}
			for _, node := range tc.failed {
				s.Devices()[node].Fail()
			}
			allocs := func(name string) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, _, err := s.GetStream(ctx, name, io.Discard, WithParallelism(1)); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := allocs("short"), allocs("long")
			t.Logf("%.0f allocations on 8 stripes, %.0f on 64", short, long)
			if slope := (long - short) / (64 - 8); slope >= 1 {
				t.Errorf("GetStream grows by %.1f allocs/stripe (%.0f on 8 stripes, %.0f on 64); a stripe costs none", slope, short, long)
			}
			if perStripe := long / 64; perStripe >= 1 {
				t.Errorf("GetStream allocates %.1f/stripe on a 64-stripe object, over the budget of < 1", perStripe)
			}
		})
	}
}

// BenchmarkPutStreamSequential is the ingest stripe loop (object deleted
// each op so the store stays empty).
func BenchmarkPutStreamSequential(b *testing.B) {
	s := benchStore(b)
	const stripes = 16
	data := payload(stripes*s.Layout().StripeCapacity, 2)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	r := bytes.NewReader(data)
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		if _, err := s.PutStream(ctx, "obj", r, WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
		if err := s.DeleteCtx(ctx, "obj"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPutStreamAllocBudget is the allocation gate on the write stripe loop.
// The stream is read into the slot scratch's payload buffer, encoded in the
// scratch's encoder and framed into its frame buffer, and the devices copy
// each frame into a slot they recycle, so what a stripe costs is the block
// keys the devices keep — Total strings — and at most 4 more, as the slope
// between an 8- and a 64-stripe object. A payload buffer per call or a frame
// per block (what the device's copy-on-write cost before its slots) trips it.
func TestPutStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the free list drops scratches at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := benchStore(t)
	ctx := context.Background()
	r := new(bytes.Reader)
	allocs := func(stripes int) float64 {
		data := payload(stripes*s.Layout().StripeCapacity, 2)
		return testing.AllocsPerRun(5, func() {
			r.Reset(data)
			if _, err := s.PutStream(ctx, "obj", r, WithParallelism(1)); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteCtx(ctx, "obj"); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(64) // carve every device's slots once
	short, long := allocs(8), allocs(64)
	perStripe := (long - short) / (64 - 8)
	t.Logf("per stripe: %.1f allocations (%d block keys)", perStripe, s.Graph().Total)
	if budget := float64(s.Graph().Total + 4); perStripe > budget {
		t.Errorf("PutStream allocates %.1f times per stripe, over the budget of Total + 4 = %.0f", perStripe, budget)
	}
}
