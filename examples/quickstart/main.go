// Quickstart: encode a file into a 96-block Tornado Code stripe, lose a
// handful of blocks, and decode the original data back — the core loop of
// the paper in ~60 lines.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"tornado"
)

func main() {
	log.SetFlags(0)

	// 1. Construct a defect-screened 96-node Tornado Code graph
	//    (48 data + 48 check nodes, the paper's RAID-10-equivalent
	//    overhead).
	g, stats, err := tornado.Generate(tornado.DefaultParams(), 2006)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %v\n", g)
	fmt.Printf("generation: %d attempts, %d defect repairs\n\n", stats.Attempts, stats.Rewires)

	// 2. Encode a payload: split into 48 data blocks, derive 48 check
	//    blocks by XOR along the cascade.
	c, err := tornado.NewCodec(g, 128) // 128-byte blocks → 6 KiB per stripe
	if err != nil {
		log.Fatal(err)
	}
	payload := bytes.Repeat([]byte("archival data worth keeping. "), 1+c.Capacity()/29)[:c.Capacity()]
	blocks, err := c.Encode(payload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %d bytes into %d blocks of %d bytes\n", len(payload), len(blocks), c.BlockSize())

	// 3. Lose blocks: drop 8 random devices.
	rng := rand.New(rand.NewPCG(7, 7))
	lost := rng.Perm(g.Total)[:8]
	for _, v := range lost {
		blocks[v] = nil
	}
	fmt.Printf("lost blocks: %v\n", lost)

	// 4. Decode: peeling reconstruction recovers the payload from the
	//    survivors.
	decoded, err := c.Decode(blocks, len(payload))
	if err != nil {
		log.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(decoded, payload) {
		log.Fatal("payload mismatch")
	}
	fmt.Println("decoded payload matches the original")

	// 5. Ask the analysis machinery how safe that was: what is the
	//    worst-case loss this graph tolerates?
	wc, err := tornado.WorstCaseCtx(context.Background(), g, tornado.WorstCaseOptions{MaxK: 4})
	if err != nil {
		log.Fatal(err)
	}
	if wc.Found {
		fmt.Printf("worst case: some %d-device loss patterns fail (%d of %d)\n",
			wc.FirstFailure, wc.PerK[len(wc.PerK)-1].FailureCount, wc.PerK[len(wc.PerK)-1].Tested)
	} else {
		fmt.Println("worst case: tolerates any 4 simultaneous device losses")
	}
}
