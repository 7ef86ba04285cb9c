// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus micro-benchmarks of the hot paths and ablations of the
// design choices called out in DESIGN.md.
//
// Each table benchmark regenerates its table through internal/exp (the
// same engine cmd/experiments uses) and prints it once, so
//
//	go test -bench=Table -benchtime=1x
//
// reproduces the whole evaluation. The preparation of the three "Tornado
// Graph n" instances (generate → screen → adjust → certify → profile) is
// shared and cached across benchmarks.
package tornado_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"tornado"
	"tornado/internal/exp"
)

var (
	benchOnce sync.Once
	benchCfg  exp.Config
	benchTGs  []*exp.TornadoGraph
	benchErr  error

	printOnce sync.Map
)

// benchPrep prepares the shared tornado graphs with the Quick
// configuration (adjust to k=3, certify to k=4; preserves every
// qualitative result — see EXPERIMENTS.md for the Full() runs).
func benchPrep(b *testing.B) ([]*exp.TornadoGraph, exp.Config) {
	b.Helper()
	benchOnce.Do(func() {
		benchCfg = exp.Quick()
		for i := range benchCfg.Seeds {
			tg, err := exp.PrepareTornado(benchCfg, i)
			if err != nil {
				benchErr = err
				return
			}
			benchTGs = append(benchTGs, tg)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTGs, benchCfg
}

// printTable emits a table once per process so -benchtime=10x runs stay
// readable.
func printTable(name, text string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func BenchmarkTable1_RAIDvsTornado(b *testing.B) {
	tgs, cfg := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, systems := exp.Table1(cfg, tgs)
		if len(systems) == 0 {
			b.Fatal("no systems")
		}
		printTable("table1", text)
	}
}

func BenchmarkTable2_Adjustment(b *testing.B) {
	tgs, cfg := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, _, err := exp.Table2(cfg, tgs)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table2", text)
	}
}

func BenchmarkTable3_AltGraphs(b *testing.B) {
	tgs, cfg := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, _, err := exp.Table3(cfg, tgs)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table3", text)
	}
}

func BenchmarkTable4_Cascades(b *testing.B) {
	tgs, cfg := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, _, err := exp.Table4(cfg, tgs)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table4", text)
	}
}

func BenchmarkTable5_Reliability(b *testing.B) {
	tgs, cfg := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, pfails := exp.Table5(cfg, tgs, 0.01)
		if pfails["Mirrored"] <= 0 {
			b.Fatal("missing mirrored row")
		}
		printTable("table5", text)
	}
}

func BenchmarkTable6_Overhead(b *testing.B) {
	tgs, _ := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, nodes := exp.Table6(tgs)
		if len(nodes) != len(tgs) {
			b.Fatal("missing rows")
		}
		printTable("table6", text)
	}
}

func BenchmarkTable7_Federation(b *testing.B) {
	tgs, cfg := benchPrep(b)
	for _, tg := range tgs {
		if len(tg.CriticalSets) == 0 {
			b.Skip("no critical sets at the certification bound")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, _, err := exp.Table7(cfg, tgs)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table7", text)
	}
}

func BenchmarkEq1_MirroredValidation(b *testing.B) {
	_, cfg := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, maxAbs, err := exp.Eq1Validation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("eq1", fmt.Sprintf("%smax |simulated − theory| = %.3g\n", text, maxAbs))
	}
}

func BenchmarkExtension_Overhead(b *testing.B) {
	tgs, cfg := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, _, err := exp.TableOverhead(cfg, tgs)
		if err != nil {
			b.Fatal(err)
		}
		printTable("overhead", text)
	}
}

func BenchmarkExtension_MTTDL(b *testing.B) {
	tgs, cfg := benchPrep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, _, err := exp.TableMTTDL(cfg, tgs, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		printTable("mttdl", text)
	}
}

func BenchmarkFigure3Curves_CSV(b *testing.B) {
	tgs, cfg := benchPrep(b)
	_, systems := exp.Table1(cfg, tgs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if csv := exp.CurvesCSV(systems); len(csv) == 0 {
			b.Fatal("empty CSV")
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

func benchGraph(b *testing.B) *tornado.Graph {
	b.Helper()
	g, _, err := tornado.Generate(tornado.DefaultParams(), 2006)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkMicro_PeelingDecodeK5(b *testing.B) {
	g := benchGraph(b)
	d := tornado.NewDecoder(g)
	rng := rand.New(rand.NewPCG(1, 1))
	erased := make([]int, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range erased {
			erased[j] = rng.IntN(g.Total)
		}
		d.Recoverable(erased)
	}
}

func BenchmarkMicro_ExhaustiveK3(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tornado.WorstCaseCtx(context.Background(), g, tornado.WorstCaseOptions{MaxK: 3})
		if err != nil {
			b.Fatal(err)
		}
		if res.Tested == 0 {
			b.Fatal("nothing tested")
		}
	}
}

func BenchmarkMicro_Generate96(b *testing.B) {
	p := tornado.DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := tornado.Generate(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_Encode4KiBBlocks(b *testing.B) {
	g := benchGraph(b)
	c, err := tornado.NewCodec(g, 4096)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, c.Capacity())
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_MonteCarloPoint(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tornado.ProfileCtx(context.Background(), g, tornado.ProfileOptions{
			Trials: 5000, MinK: 24, MaxK: 24, ExhaustiveLimit: 1, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of DESIGN.md's called-out choices ---

// Ablation: defect screening cost and acceptance (generation with and
// without the §3.2 screen+repair).
func BenchmarkAblation_GenerateUnscreened(b *testing.B) {
	p := tornado.DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := tornado.GenerateUnscreened(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
