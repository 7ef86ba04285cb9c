package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"time"
)

// certifyGraphSeed fixes the graphs the two certification workloads certify.
// Certification cost differs by about ±10% from one generated graph to the
// next (improve takes 2 to 6 adjustment rounds, the k=5 scan prunes
// differently; at n=30000 the same run-to-run spread is 8% with the graph
// following -seed and 1.4% with it fixed), which would read as run-to-run noise
// if the graph followed -seed; the run's seed drives the Monte Carlo profile
// and the sampler instead. Seed 2006 through the design pipeline is the
// shipped tornado96-1, so every round is checked against its certificate.
const certifyGraphSeed = 2006

// designRunner is design_certify: the paper's §3 pipeline on one worker.
type designRunner struct {
	e       *env
	shipped string // expected certificate at full scale
	first   string // certificate of the first round
	graph   *Graph // the improved graph of the last round
	reports []AdjustReport
	took    map[string][]float64 // seconds per step and round
}

func buildDesignCertify(e *env) (runner, error) {
	d := &designRunner{e: e, took: map[string][]float64{}}
	if e.full {
		text, err := precompiledCertificate("tornado96-1")
		if err != nil {
			return nil, err
		}
		if d.shipped, err = parseShippedCert(text, e.sz.DesignK); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// certLine renders a certificate the way both sides are compared: the
// first-failure cardinality and the failure count of every k.
func certLine(firstFailure int, failures []int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "first-failure=%d", firstFailure)
	for i, f := range failures {
		fmt.Fprintf(&b, " k%d=%d", i+1, f)
	}
	return b.String()
}

// parseShippedCert reads a precompiled .cert sidecar into a certLine.
func parseShippedCert(text string, maxK int) (string, error) {
	failures := make([]int64, maxK)
	first, seen := 0, 0
	for _, ln := range strings.Split(text, "\n") {
		var k int
		var f, c int64
		if n, _ := fmt.Sscanf(ln, "k=%d: %d failures / %d combinations", &k, &f, &c); n == 3 && k >= 1 && k <= maxK {
			failures[k-1] = f
			seen++
		}
		_, _ = fmt.Sscanf(ln, "first-failure: %d", &first)
	}
	if seen != maxK || first == 0 {
		return "", fmt.Errorf("shipped certificate has %d of %d k= lines, first-failure %d", seen, maxK, first)
	}
	return certLine(first, failures), nil
}

func (d *designRunner) round() error {
	e := d.e
	ctx, cancel := passCtx()
	defer cancel()
	// step runs one call of the pipeline as a timed section of its own.
	step := func(name string, fn func() error) (time.Duration, error) {
		var err error
		took := e.timed(func() {
			sp := e.tr.root(name)
			err = fn()
			sp.end()
		})
		d.took[name] = append(d.took[name], took.Seconds())
		e.op(err == nil)
		return took, err
	}

	var g *Graph
	gen, err := step("core.Generate", func() (err error) {
		g, err = generate(96, certifyGraphSeed)
		return err
	})
	if err != nil {
		return err
	}
	imp, err := step("adjust.ImproveCtx", func() (err error) {
		d.graph, d.reports, err = improve(ctx, g, e.sz.DesignImproveK, certifyGraphSeed)
		return err
	})
	if err != nil {
		return err
	}
	var wc WorstCaseResult
	scan, err := step("sim.WorstCaseCtx", func() (err error) {
		wc, err = worstCase(ctx, d.graph, e.sz.DesignK, 1)
		return err
	})
	if err != nil {
		return err
	}
	e.add("certify_s", (gen + imp + scan).Seconds())
	e.add("patterns_per_s", float64(wc.Tested)/scan.Seconds())

	var prof *FailureProfile
	pt, err := step("sim.ProfileCtx", func() (err error) {
		prof, err = profile(ctx, d.graph, e.sz.ProfileTrials, e.seed)
		return err
	})
	if err != nil {
		return err
	}
	trials := int64(0)
	for _, p := range prof.Fail {
		trials += p.Trials
	}
	e.add("profile_trials_per_s", float64(trials)/pt.Seconds())

	// The certificate is the output: identical every round, and at full scale
	// identical to the one shipped with the graph this pipeline produces.
	failures := make([]int64, len(wc.PerK))
	for i, kr := range wc.PerK {
		failures[i] = kr.FailureCount
	}
	cert := certLine(wc.FirstFailure, failures)
	if d.first == "" {
		d.first = cert
	}
	if cert != d.first {
		return invalidf("certificate changed between rounds: %q then %q", d.first, cert)
	}
	if e.full {
		if cert != d.shipped {
			return invalidf("certificate %q differs from shipped tornado96-1 %q", cert, d.shipped)
		}
		if wc.FirstFailure < 5 {
			return invalidf("first failure %d < 5", wc.FirstFailure)
		}
	}
	return nil
}

func (d *designRunner) reset() error { return nil }

func (d *designRunner) layers() error {
	e := d.e
	ctx, cancel := passCtx()
	defer cancel()
	k := e.sz.DesignK

	var err error
	e.set("core.generate96_ms", medianNs(20, func() { _, err = generate(96, certifyGraphSeed) })/1e6)
	if err != nil {
		return err
	}
	ms, err := e.replay(ctx, "defect.ScanDataLevelCtx", func(ctx context.Context) error {
		_, err := scanDataLevel(ctx, d.graph, 3)
		return err
	})
	if err != nil {
		return err
	}
	e.set("defect.scan3_ms", ms.Seconds()*1e3)
	rounds, rewires := 0, 0
	for _, r := range d.reports {
		rounds += r.Rounds
		rewires += len(r.Rewires)
	}
	e.set("adjust.rounds", float64(rounds))
	e.set("adjust.rewires", float64(rewires))
	e.set("adjust.improve_ms", median(d.took["adjust.ImproveCtx"])*1e3)

	// The scan itself, below WorstCaseCtx: the whole rank space of the largest
	// cardinality on one goroutine, then split over two.
	total := binomial(d.graph.Total, k)
	one, err := e.replay(ctx, "sim.ScanRangeCtx", func(ctx context.Context) error {
		_, err := scanRange(ctx, d.graph, k, 0, total)
		return err
	})
	if err != nil {
		return err
	}
	e.set("sim.scan_k5_patterns_per_s", float64(total)/one.Seconds())
	two, err := e.replay(ctx, "sim.ScanRangeCtx x2", func(ctx context.Context) error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, errs[w] = scanRange(ctx, d.graph, k, total/2*int64(w), total/2*int64(w)+total/2+int64(w)*(total%2))
			}(w)
		}
		wg.Wait()
		if errs[0] != nil {
			return errs[0]
		}
		return errs[1]
	})
	if err != nil {
		return err
	}
	e.set("sim.scan_speedup_2w", one.Seconds()/two.Seconds())

	e.tr.on.Store(false)
	n, _ := allocsPer(20, func() { _, _ = scanRange(ctx, d.graph, k, 0, 64) })
	e.set("sim.scan_setup_allocs", n)
	kernelLayers(e, newCSR(d.graph), k)

	scanS := median(d.took["sim.WorstCaseCtx"])
	e.set("sim.worstcase_k5_s", scanS)
	e.line("scan: sim.WorstCaseCtx", scanS, "s", 1, fmt.Sprintf("every k <= %d on one worker", k))
	e.line("  of which sim.ScanRangeCtx at k", one.Seconds(), "s", one.Seconds()/scanS, fmt.Sprintf("%d patterns replayed on one goroutine", total))
	return nil
}

// binomial is C(n, k) for the small arguments the benchmark uses.
func binomial(n, k int) int64 {
	c := int64(1)
	for i := 1; i <= k; i++ {
		c = c * int64(n-k+i) / int64(i)
	}
	return c
}

var sink bool // keeps kernel verdicts alive

// kernelLayers times the decode kernels and the combination stepper under a
// scan of cardinality k: the scalar kernel advanced by revolving-door swaps
// (the exhaustive scan's inner loop) and the 64-lane sliced kernel fed random
// k-subsets (the sampler's inner loop).
func kernelLayers(e *env, csr *CSR, k int) {
	n := int(csr.Total)
	iters := e.sz.KernelIters
	idx := make([]int, k)
	restart := func() {
		for i := range idx {
			idx[i] = i
		}
	}

	restart()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, _, ok := grayNext(idx, n); !ok {
			restart()
		}
	}
	e.set("combin.gray_next_ns", float64(time.Since(t0).Nanoseconds())/float64(iters))

	kern := newKernel(csr)
	restart()
	for _, v := range idx {
		kern.EraseOne(v)
	}
	c0, _ := mallocs()
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		out, in, ok := grayNext(idx, n)
		if !ok {
			break
		}
		kern.Swap(out, in)
		sink = kern.Eval()
	}
	e.set("decode.kernel_swap_eval_ns", float64(time.Since(t0).Nanoseconds())/float64(iters))
	c1, _ := mallocs()
	e.set("decode.kernel_allocs_per_op", float64(c1-c0)/float64(iters))

	// 64 random k-subsets per word, staged as (node, lanes) pairs up front so
	// the loop times Reset + Erase + Eval, as the sampler runs them.
	type stage struct {
		node  int
		lanes uint64
	}
	rng := rand.New(rand.NewPCG(e.seed, 7))
	const words = 256
	staged := make([][]stage, words)
	for w := range staged {
		lanes := map[int]uint64{}
		for lane := 0; lane < 64; lane++ {
			for picked := 0; picked < k; {
				v := rng.IntN(n)
				if lanes[v]&(1<<lane) == 0 {
					lanes[v] |= 1 << lane
					picked++
				}
			}
		}
		for v, m := range lanes {
			staged[w] = append(staged[w], stage{v, m})
		}
	}
	sk := newSlicedKernel(csr)
	wordIters := max(iters/64, words)
	t0 = time.Now()
	for i := 0; i < wordIters; i++ {
		sk.Reset()
		sk.SetActive(^uint64(0))
		for _, s := range staged[i%words] {
			sk.Erase(s.node, s.lanes)
		}
		sink = sk.Eval() != 0
	}
	e.set("decode.sliced_eval_word_ns", float64(time.Since(t0).Nanoseconds())/float64(wordIters))
}

// scaleRunner is certify_scale: sampled certification at archival size.
type scaleRunner struct {
	e     *env
	first string
	graph *Graph
	last  *CertifyResult
}

func buildCertifyScale(e *env) (runner, error) { return &scaleRunner{e: e}, nil }

const scaleK = 5

func (s *scaleRunner) round() error {
	e := s.e
	ctx, cancel := passCtx()
	defer cancel()
	var g *Graph
	var res *CertifyResult
	var err error
	gen := e.timed(func() {
		sp := e.tr.root("core.Generate")
		g, err = generate(e.sz.ScaleNodes, certifyGraphSeed)
		sp.end()
	})
	e.op(err == nil)
	if err != nil {
		return err
	}
	cert := e.timed(func() {
		sp := e.tr.root("sim.CertifyCtx")
		res, err = certify(ctx, g, scaleK, e.sz.ScaleEpsilon, e.seed)
		sp.end()
	})
	e.op(err == nil)
	if err != nil {
		return err
	}
	e.add("certify_s", (gen + cert).Seconds())
	e.add("patterns_per_s", float64(res.Tally.Trials)/cert.Seconds())
	s.graph, s.last = g, res

	if hw := res.HalfWidth(); hw > e.sz.ScaleEpsilon {
		return invalidf("half-width %.3g above the %.3g target after %d trials", hw, e.sz.ScaleEpsilon, res.Tally.Trials)
	}
	tally := fmt.Sprintf("%d/%d screened %d", res.Tally.Hits, res.Tally.Trials, res.Screened)
	if s.first == "" {
		s.first = tally
	}
	if tally != s.first {
		return invalidf("tally changed between rounds: %s then %s", s.first, tally)
	}
	return nil
}

func (s *scaleRunner) reset() error { return nil }

func (s *scaleRunner) layers() error {
	e := s.e
	ctx, cancel := passCtx()
	defer cancel()
	e.set("sim.screen_rate", s.last.ScreenRate())
	e.set("sim.sampled_trials", float64(s.last.Tally.Trials))

	times := func(n int, name string, fn func() error) (float64, error) {
		var ms []float64
		for i := 0; i < n; i++ {
			d, err := e.replay(ctx, name, func(context.Context) error { return fn() })
			if err != nil {
				return 0, err
			}
			ms = append(ms, d.Seconds()*1e3)
		}
		return median(ms), nil
	}
	genMs, err := times(3, "core.Generate", func() error {
		_, err := generate(e.sz.ScaleNodes, certifyGraphSeed)
		return err
	})
	if err != nil {
		return err
	}
	e.set("core.generate_stream_ms", genMs)
	pairsMs, _ := times(3, "core.ClosedDataPairs", func() error {
		closedDataPairs(s.graph)
		return nil
	})
	e.set("core.closed_pairs_ms", pairsMs)

	var csr *CSR
	var heapMB float64
	csrMs, _ := times(3, "decode.NewCSR", func() error {
		csr = nil
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		csr = newCSR(s.graph)
		runtime.ReadMemStats(&after)
		heapMB = float64(after.HeapAlloc-before.HeapAlloc) / 1e6
		return nil
	})
	e.set("decode.new_csr_scale_ms", csrMs)
	e.set("decode.csr_scale_mb", heapMB)

	sampler := newSampler(csr)
	block := int64(e.sz.SampleBlock)
	d, err := e.replay(ctx, "sim.SampleBlock", func(ctx context.Context) error {
		_, err := sampler.SampleBlock(ctx, scaleK, block, e.seed, 0, 256)
		return err
	})
	if err != nil {
		return err
	}
	perTrial := float64(d.Nanoseconds()) / float64(block)
	e.set("sim.sample_block_ns_per_trial", perTrial)

	e.tr.on.Store(false)
	kernelLayers(e, csr, scaleK)

	// CertifyCtx builds the CSR and samples; the replays say how much is which.
	certifyMs := e.value("certify_s")*1e3 - genMs
	sampleMs := perTrial * float64(s.last.Tally.Trials) / 1e6
	e.line("certify: sim.CertifyCtx", certifyMs, "ms", 1, "certify_s minus generation")
	e.line("  of which decode.NewCSR", csrMs, "ms", csrMs/certifyMs, "replayed on the same graph (GC forced before each build)")
	e.line("  of which sampling", sampleMs, "ms", sampleMs/certifyMs, "sample_block_ns_per_trial x sampled_trials")
	e.line("  of which core.ClosedDataPairs", pairsMs, "ms", pairsMs/certifyMs, "the structural screen's collision analysis, if CertifyCtx runs it")
	return nil
}
