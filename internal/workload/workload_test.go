package workload

import (
	"context"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
)

func TestGeneratorDeterministic(t *testing.T) {
	spec := Spec{Ops: 200, Seed: 3, FailEvery: 37, RepairEvery: 80}
	a, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		oa, oka := a.Next()
		ob, okb := b.Next()
		if oka != okb || oa != ob {
			t.Fatalf("streams diverge: %v/%v vs %v/%v", oa, oka, ob, okb)
		}
		if !oka {
			return
		}
	}
}

func TestGeneratorOpMix(t *testing.T) {
	gen, err := NewGenerator(Spec{Ops: 2000, PutFraction: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	puts, gets := 0, 0
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case OpPut:
			puts++
			if op.Object == "" || op.Size <= 0 {
				t.Fatalf("bad put %+v", op)
			}
		case OpGet:
			gets++
			if op.Object == "" {
				t.Fatal("get without object")
			}
		}
	}
	if puts+gets != 2000 {
		t.Errorf("ops = %d", puts+gets)
	}
	// ~30% puts with slack (the first op is always a put).
	frac := float64(puts) / 2000
	if frac < 0.25 || frac > 0.36 {
		t.Errorf("put fraction = %v", frac)
	}
}

func TestGeneratorGetsReferenceStoredObjects(t *testing.T) {
	gen, err := NewGenerator(Spec{Ops: 500, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string]bool{}
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case OpPut:
			if stored[op.Object] {
				t.Fatalf("duplicate put %s", op.Object)
			}
			stored[op.Object] = true
		case OpGet:
			if !stored[op.Object] {
				t.Fatalf("get of unknown object %s", op.Object)
			}
		}
	}
}

// TestGetVerifiesLength: every Get op carries the size its object was Put
// with, and a Get that returns a short payload counts as corrupted even when
// the bytes it did return are a prefix of the object's seeded stream.
func TestGetVerifiesLength(t *testing.T) {
	gen, err := NewGenerator(Spec{Ops: 500, Seed: 6, SizeDist: SizeUniform, MinSize: 1, MaxSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	gets := 0
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case OpPut:
			sizes[op.Object] = op.Size
		case OpGet:
			gets++
			if op.Size != sizes[op.Object] {
				t.Fatalf("get %s carries size %d, its put had %d", op.Object, op.Size, sizes[op.Object])
			}
		}
	}
	if gets == 0 {
		t.Fatal("no gets generated")
	}

	op := Op{Kind: OpGet, Object: "obj-000007", Size: 300}
	whole := payloadInto(nil, op.Object, op.Size)
	if ok, _ := verifyGet(op, whole, nil); !ok {
		t.Fatal("the exact payload failed verification")
	}
	if ok, _ := verifyGet(op, whole[:op.Size-1], nil); ok {
		t.Error("a truncated payload that is a prefix of the seeded stream verified clean")
	}
	if ok, _ := verifyGet(op, nil, nil); ok {
		t.Error("an empty payload verified clean")
	}
	flipped := append([]byte(nil), whole...)
	flipped[op.Size/2] ^= 1
	if ok, _ := verifyGet(op, flipped, nil); ok {
		t.Error("a flipped byte verified clean")
	}
}

func TestGeneratorFailRepairSchedule(t *testing.T) {
	gen, err := NewGenerator(Spec{Ops: 100, Seed: 7, FailEvery: 25, RepairEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	fails, repairs := 0, 0
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case OpFail:
			fails++
		case OpRepair:
			repairs++
		}
	}
	if fails == 0 || repairs == 0 {
		t.Errorf("fails=%d repairs=%d", fails, repairs)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Spec{Ops: -1}); err == nil {
		t.Error("negative ops accepted")
	}
	if _, err := NewGenerator(Spec{Ops: 1, MinSize: 10, MaxSize: 5}); err == nil {
		t.Error("min>max accepted")
	}
}

func TestSizeDistributions(t *testing.T) {
	for _, dist := range []SizeDist{SizeFixed, SizeUniform, SizeLogNormal} {
		gen, err := NewGenerator(Spec{
			Ops: 300, PutFraction: 1, SizeDist: dist,
			MeanSize: 1000, MinSize: 10, MaxSize: 50000, Sigma: 1, Seed: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[int]bool{}
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			if op.Kind != OpPut {
				continue
			}
			if op.Size < 10 || op.Size > 50000 {
				t.Fatalf("dist %d: size %d out of bounds", dist, op.Size)
			}
			distinct[op.Size] = true
		}
		if dist == SizeFixed && len(distinct) != 1 {
			t.Errorf("fixed sizes not fixed: %d distinct", len(distinct))
		}
		if dist != SizeFixed && len(distinct) < 50 {
			t.Errorf("dist %d: only %d distinct sizes", dist, len(distinct))
		}
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{OpPut: "put", OpGet: "get", OpFail: "fail", OpRepair: "repair", OpKind(9): "op(9)"} {
		if k.String() != want {
			t.Errorf("%d → %q", int(k), k.String())
		}
	}
}

func TestRunWorkloadEndToEnd(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(44, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devices := device.NewArray(g.Total)
	store, err := archive.New(g, devices, archive.Config{BlockSize: 256, FirstFailure: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(store, devices, Spec{
		Ops: 120, PutFraction: 0.4, SizeDist: SizeLogNormal,
		MeanSize: 4000, MaxSize: 40000,
		FailEvery: 60, RepairEvery: 90, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Puts == 0 || res.Gets == 0 {
		t.Errorf("no traffic: %+v", res)
	}
	if res.Corrupted != 0 {
		t.Errorf("%d corrupted payloads", res.Corrupted)
	}
	if res.LostObjects != 0 {
		t.Errorf("%d lost objects with only %d failures before repair", res.LostObjects, res.FailuresInjected)
	}
	if res.FailuresInjected == 0 || res.Replacements == 0 {
		t.Errorf("maintenance not exercised: %+v", res)
	}
	t.Logf("workload result: %+v", res)
}

// Property: the generated stream always references existing objects and
// respects size bounds, for arbitrary specs.
func TestQuickGeneratorWellFormed(t *testing.T) {
	f := func(seed uint64, opsRaw, putFracRaw uint16) bool {
		spec := Spec{
			Ops:         int(opsRaw % 500),
			PutFraction: float64(putFracRaw%100) / 100,
			SizeDist:    SizeDist(seed % 3),
			MeanSize:    1000,
			Seed:        seed,
		}
		gen, err := NewGenerator(spec)
		if err != nil {
			return false
		}
		stored := map[string]bool{}
		count := 0
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			count++
			if count > spec.Ops+10 {
				return false // runaway stream
			}
			switch op.Kind {
			case OpPut:
				if op.Size <= 0 || stored[op.Object] {
					return false
				}
				stored[op.Object] = true
			case OpGet:
				if !stored[op.Object] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRunLoadUnderChaos runs the workload over a chaos-injected store with
// a concurrent repair scrub underneath, on top of the workload's own device
// failures and replace-and-scrub passes. The invariant is
// bit-exact-or-error: a Get may be lost, never silently wrong.
func TestRunLoadUnderChaos(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(21, 1)))
	if err != nil {
		t.Fatal(err)
	}
	devices := device.NewArray(g.Total)
	inj := chaos.Wrap(archive.NewArrayBackend(devices), chaos.Config{
		Seed:            31,
		BitFlipRate:     0.002,
		ReadCorruptRate: 0.002,
		TruncateRate:    0.002,
		ReadErrRate:     0.005,
	})
	store, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	scrubCtx, stopScrub := context.WithCancel(context.Background())
	scrubDone := make(chan struct{})
	go func() {
		defer close(scrubDone)
		for scrubCtx.Err() == nil {
			_, _ = store.ScrubCtx(scrubCtx, true)
		}
	}()
	res, err := Run(store, devices, Spec{
		Ops: 200, PutFraction: 0.3, SizeDist: SizeLogNormal,
		MeanSize: 2000, MaxSize: 8000,
		FailEvery: 50, RepairEvery: 70, Seed: 5,
	})
	stopScrub()
	<-scrubDone
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupted != 0 {
		t.Fatalf("%d silent corruptions under chaos load", res.Corrupted)
	}
	if res.Puts == 0 || res.Gets == 0 {
		t.Errorf("mix degenerate: %d gets, %d puts", res.Gets, res.Puts)
	}
	if res.FailuresInjected == 0 || res.Replacements == 0 || res.BlocksRepaired == 0 {
		t.Errorf("maintenance not exercised: %+v", res)
	}
	if in := inj.InjectedTotals(); in[chaos.ClassBitFlip]+in[chaos.ClassReadCorruption]+in[chaos.ClassTruncate] == 0 {
		t.Errorf("chaos injected no corruption: %v", in)
	}
	t.Logf("workload result: %+v", res)
}
