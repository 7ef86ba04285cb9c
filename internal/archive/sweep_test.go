package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tornado/internal/codec"
	"tornado/internal/device"
	"tornado/internal/graph"
	"tornado/internal/retrieval"
)

// sweepRead is the oracle of a stripe read: the read as it was before a Get
// retried what errored. It probes like getStripe, plans, reads, prices out
// each bad frame and re-plans until the plan is read or no plan is left;
// then, if the blocks read do not decode, it reads every reachable frame not
// yet read or found rotten — the fallback sweep — and decodes once more. It
// reads through readFramed into frames of its own, and changes nothing in
// the store: no quarantine count, no write-back.
func sweepRead(s *Store, name string, st int) ([]byte, error) {
	obj, rec, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	stripeCap := s.codec.Capacity()
	n := min(obj.Size-st*stripeCap, stripeCap)
	live := s.liveBlocks(n)
	var keys keyBuf
	keys.stripe(name, st)
	rec = rec.live()
	total := s.g.Total
	blocks := make([][]byte, total)
	avail, known, corrupt := make([]bool, total), make([]bool, total), make([]bool, total)
	cost := make([]float64, total)
	for node := range total {
		known[node] = node >= live && node < s.g.Data
		if known[node] {
			avail[node], blocks[node] = true, s.zero
			continue
		}
		avail[node] = !s.isQuarantined(node) && s.available(rec, node, &keys)
		if avail[node] {
			cost[node] = s.backend.Cost(node)
		}
	}
	read := func(node int) {
		framed, err := s.readFramed(context.Background(), node, keys.key(node), nil, nil)
		if err != nil {
			return
		}
		if b, ok := unframeBlock(framed); ok {
			blocks[node] = b
		} else {
			corrupt[node] = true
		}
	}

	planner := retrieval.NewPlanner(s.g)
	planner.Known(known)
	price := func(node int) float64 { return cost[node] }
	toRead, _, err := planner.PlanEconomic(avail, price)
	if err != nil {
		return nil, err
	}
	for {
		replan := false
		for _, node := range toRead {
			if blocks[node] != nil {
				continue
			}
			if read(node); blocks[node] == nil {
				cost[node] = math.Inf(1)
				replan = true
			}
		}
		if !replan {
			break
		}
		for node, b := range blocks {
			if b != nil && !known[node] {
				cost[node] = 0
			}
		}
		if toRead, _, err = planner.PlanEconomic(avail, price); err != nil {
			break
		}
	}
	// Decode fills in what it rebuilds: each decode peels a copy.
	decode := func() ([]byte, error) { return s.codec.Decode(slices.Clone(blocks), n) }
	payload, err := decode()
	if errors.Is(err, codec.ErrUnrecoverable) {
		for node, ok := range avail {
			if ok && blocks[node] == nil && !corrupt[node] {
				read(node)
			}
		}
		payload, err = decode()
	}
	return payload, err
}

// Node damage in a read script.
const (
	nodeHealthy    = iota
	nodeFailed     // device failed before the read
	nodeDead       // available, but every read call errors
	nodeRotten     // its stored frame is rotten
	nodeFlaky      // its first n read calls error transiently
	nodeDamageKind // how many kinds there are
)

// scriptBackend plays a read script: per node, how its read calls fail. It
// counts every read call per node, failed ones too.
type scriptBackend struct {
	Backend
	kind  []int
	flaky []int // nodeFlaky: read calls left to fail
	calls []int
}

func (b *scriptBackend) ReadInto(ctx context.Context, node int, key, dst []byte) ([]byte, error) {
	b.calls[node]++
	switch {
	case b.kind[node] == nodeDead:
		return nil, fmt.Errorf("dead read of node %d", node)
	case b.kind[node] == nodeFlaky && b.flaky[node] > 0:
		b.flaky[node]--
		return nil, fmt.Errorf("flaky read of node %d: %w", node, ErrTransient)
	}
	return ReaderIntoOf(b.Backend).ReadInto(ctx, node, key, dst)
}

// readMatchesSweep is the differential check of a Get against sweepRead:
// one object of size bytes (one stripe, full or short, block size 64) is
// stored over a scriptBackend and damaged by the script — per node, a damage
// kind and, for a flaky node, its failing read calls. The oracle reads the
// stripe; then, with the flaky nodes' failures re-armed, ReadStripe does.
// The Get must return bytes exactly when the oracle does, the same bytes,
// and make no read call of a node beyond the calls the oracle made of it.
// It reports whether the Get succeeded, and whether some node took more
// read calls than one read's transient-retry budget: a flaky node asked
// again on the retry.
func readMatchesSweep(t *testing.T, g *graph.Graph, size int, kind, flaky []int) (ok, retried bool) {
	t.Helper()
	data := payload(size, uint64(size)+3)
	devs := device.NewArray(g.Total)
	sb := &scriptBackend{Backend: NewArrayBackend(devs), kind: make([]int, g.Total), calls: make([]int, g.Total)}
	s, err := NewWithBackend(g, sb, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCtx(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	for node, k := range kind {
		switch k {
		case nodeFailed:
			devs[node].Fail()
		case nodeRotten:
			corruptFrame(t, devs, node)
		}
	}
	copy(sb.kind, kind)

	sb.flaky = slices.Clone(flaky)
	ob, oerr := sweepRead(s, "obj", 0)
	want := slices.Clone(sb.calls)
	sb.flaky = slices.Clone(flaky)
	clear(sb.calls)
	b, _, err := s.ReadStripe(ctx, "obj", 0)
	switch {
	case (err == nil) != (oerr == nil):
		t.Fatalf("size %d kinds %v flaky %v: Get %v, oracle %v", size, kind, flaky, err, oerr)
	case err != nil && !errors.Is(err, ErrDataLoss):
		t.Fatalf("size %d: Get failed with %v, not ErrDataLoss", size, err)
	case err == nil && (!bytes.Equal(b, ob) || !bytes.Equal(b, data)):
		t.Fatalf("size %d kinds %v flaky %v: Get and oracle bytes differ (exact: Get %v, oracle %v)",
			size, kind, flaky, bytes.Equal(b, data), bytes.Equal(ob, data))
	}
	for node, n := range sb.calls {
		if n > want[node] {
			t.Fatalf("size %d kinds %v flaky %v: Get read node %d %d times, the oracle %d",
				size, kind, flaky, node, n, want[node])
		}
		retried = retried || n > transientRetries+1
	}
	return err == nil, retried
}

// readScript decodes a fuzz script: byte v is node v's damage — its low
// nibble a kind (1 failed, 2 dead, 3 rotten, 4 flaky; anything else, or a
// missing byte, healthy) and, for a flaky node, its high nibble the read
// calls that fail.
func readScript(g *graph.Graph, script []byte) (kind, flaky []int) {
	kind, flaky = make([]int, g.Total), make([]int, g.Total)
	for node := range min(len(script), g.Total) {
		if k := int(script[node] & 0x0f); k < nodeDamageKind {
			kind[node] = k
		}
		flaky[node] = int(script[node] >> 4)
	}
	return kind, flaky
}

// sweepGoldenScript is the damage of the call-sequence golden "node 1
// answers on retry": every check above node 1 failed, check 75 rotten, and
// node 1 failing past the retry budget once.
func sweepGoldenScript(g *graph.Graph) []byte {
	script := make([]byte, g.Total)
	for _, node := range checksAbove(g, 1) {
		script[node] = nodeFailed
	}
	script[75] = nodeRotten
	script[1] = nodeFlaky | (transientRetries+1)<<4
	return script
}

// TestReadMatchesSweep runs readMatchesSweep over seeded scripts — every
// node damaged with probability rate, its kind and flaky count drawn
// uniformly — on full and short stripes. Both outcomes must occur, and some
// Get must succeed after a retry.
func TestReadMatchesSweep(t *testing.T) {
	g := benchStore(t).Graph()
	capacity := g.Data * 64
	rng := rand.New(rand.NewPCG(2006, 56))
	ok, rescued, trials := 0, 0, 200
	for trial := range trials {
		size := capacity - rng.IntN(capacity/2)*(trial%2)
		rate := []float64{0.1, 0.25, 0.4}[trial%3]
		kind, flaky := make([]int, g.Total), make([]int, g.Total)
		for node := range g.Total {
			if rng.Float64() < rate {
				kind[node] = 1 + rng.IntN(nodeDamageKind-1)
				flaky[node] = rng.IntN(2 * (transientRetries + 1))
			}
		}
		got, retried := readMatchesSweep(t, g, size, kind, flaky)
		if got {
			ok++
			if retried {
				rescued++
			}
		}
	}
	t.Logf("%d of %d reads succeeded, %d of them on a retry", ok, trials, rescued)
	if ok == 0 || ok == trials || rescued == 0 {
		t.Errorf("%d of %d reads succeeded, %d on a retry: every outcome must be exercised", ok, trials, rescued)
	}
}

// FuzzReadMatchesSweep is the randomized arm of TestReadMatchesSweep: size
// picks the payload length in 0..StripeCapacity, and script is decoded by
// readScript. The corpus starts from the call-sequence golden's damage.
func FuzzReadMatchesSweep(f *testing.F) {
	g := benchStore(f).Graph()
	capacity := g.Data * 64
	golden := sweepGoldenScript(g)
	f.Add(uint16(capacity-7), golden)
	f.Add(uint16(16*64-7), golden)
	f.Add(uint16(capacity), []byte{})
	f.Add(uint16(100), []byte{0x01, 0x34, 0x02, 0x03, 0x14})
	f.Add(uint16(2000), []byte{0, 0x31, 0x22, 0x43, 0x74, 0x04, 0, 0x11, 0, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, size uint16, script []byte) {
		kind, flaky := readScript(g, script)
		readMatchesSweep(t, g, int(size)%(capacity+1), kind, flaky)
	})
}
