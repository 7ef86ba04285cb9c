package workload

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"tornado/internal/archive"
	"tornado/internal/device"
)

// Result aggregates a workload run against an archival store.
type Result struct {
	Puts, Gets       int
	BytesIn          int64
	BytesOut         int64
	FailuresInjected int
	Replacements     int
	BlocksRepaired   int
	DevicesAccessed  int64 // summed over gets
	Corrupted        int   // payload mismatches (must stay 0)
	LostObjects      int   // gets that returned data-loss
}

// Run executes the spec's operation stream against store. Devices must be
// the store's device array (failure injection targets it). Every retrieved
// payload is verified against a seeded regeneration of the original, so
// corruption cannot hide.
func Run(store *archive.Store, devices device.Array, spec Spec) (Result, error) {
	gen, err := NewGenerator(spec)
	if err != nil {
		return Result{}, err
	}
	ctx := context.TODO() // Run keeps its context-less signature
	rng := rand.New(rand.NewPCG(spec.Seed, 0xD1CE))
	var res Result
	var putBuf, verifyBuf []byte // reused across ops; payloads are regenerated, never stored
	for {
		op, ok := gen.Next()
		if !ok {
			return res, nil
		}
		switch op.Kind {
		case OpPut:
			putBuf = payloadInto(putBuf, op.Object, op.Size)
			if err := store.PutCtx(ctx, op.Object, putBuf); err != nil {
				return res, fmt.Errorf("workload: put %s: %w", op.Object, err)
			}
			res.Puts++
			res.BytesIn += int64(len(putBuf))
		case OpGet:
			got, stats, err := store.GetCtx(ctx, op.Object)
			if err != nil {
				res.LostObjects++
				continue
			}
			res.Gets++
			res.BytesOut += int64(len(got))
			res.DevicesAccessed += int64(stats.DevicesAccessed)
			var ok bool
			ok, verifyBuf = verifyGet(op, got, verifyBuf)
			if !ok {
				res.Corrupted++
			}
		case OpFail:
			// Fail a random live device.
			live := make([]int, 0, len(devices))
			for i, d := range devices {
				if d.State() != device.Failed {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				continue
			}
			devices[live[rng.IntN(len(live))]].Fail()
			res.FailuresInjected++
		case OpRepair:
			for _, d := range devices {
				if d.State() == device.Failed {
					d.Replace()
					res.Replacements++
				}
			}
			rep, err := store.ScrubCtx(ctx, true)
			if err != nil {
				return res, fmt.Errorf("workload: scrub: %w", err)
			}
			res.BlocksRepaired += rep.BlocksRepaired
		}
	}
}

// verifyGet reports whether got is exactly the payload op's object was Put
// with: its length and every byte of the seeded regeneration. buf is reused
// scratch, returned for the next call.
func verifyGet(op Op, got, buf []byte) (bool, []byte) {
	if len(got) != op.Size {
		return false, buf
	}
	buf = payloadInto(buf, op.Object, op.Size)
	return bytes.Equal(got, buf), buf
}

// payloadInto regenerates the payload into dst's storage when it fits,
// so steady-state generation and verification allocate nothing.
func payloadInto(dst []byte, name string, size int) []byte {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewPCG(h.Sum64(), 7))
	if cap(dst) < size {
		dst = make([]byte, size)
	}
	dst = dst[:size]
	for i := range dst {
		dst[i] = byte(rng.IntN(256))
	}
	return dst
}
