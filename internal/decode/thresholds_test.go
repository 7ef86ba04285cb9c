package decode_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/decode"
)

// BenchmarkOrderThresholds is the failure profile's per-order cost on each
// kernel: a shuffle and the order's threshold over the profile's full
// window, 64 orders to a SlicedKernel.Thresholds word (sliced, the
// profile's kernel) or one Decoder.Threshold per order (scalar, its
// oracle), at n = 96, 512, 1,024 and 10,000. The sliced bisection's cost
// grows with the graph's peel chains (Eval sweeps until nothing moves), the
// scalar peel's with its edges only, so the sliced lead shrinks with n and
// turns into a loss at about 1,000 nodes. ns/order is the number to read.
func BenchmarkOrderThresholds(b *testing.B) {
	for _, n := range []int{96, 512, 1024, 10000} {
		p := core.DefaultParams()
		p.TotalNodes = n
		g, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, uint64(n))))
		if err != nil {
			b.Fatal(err)
		}
		csr := decode.NewCSR(g)
		orders := make([][]int, decode.Lanes)
		for L := range orders {
			orders[L] = rand.New(rand.NewPCG(uint64(L), 0)).Perm(n)
		}
		out := make([]int, decode.Lanes)
		rng := rand.New(rand.NewPCG(1, 1))
		shuffle := func() {
			for _, order := range orders {
				rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
		}
		run := func(b *testing.B, word func()) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shuffle()
				word()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*decode.Lanes), "ns/order")
		}
		d := decode.NewDecoder(csr)
		d.Threshold(orders[0], 0, n-1) // builds the all-erased snapshot
		b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
			run(b, func() {
				for L, order := range orders {
					out[L] = d.Threshold(order, 0, n-1)
				}
			})
		})
		sk := decode.NewSlicedKernel(csr)
		b.Run(fmt.Sprintf("sliced/n=%d", n), func(b *testing.B) {
			run(b, func() { sk.Thresholds(orders, 0, n-1, out) })
		})
	}
}
