package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// opTimeout bounds every data-path operation (one Get, Put, object
	// restore): a hang is a counted failure, not a stuck run.
	opTimeout = 5 * time.Second
	// passTimeout bounds whole-store passes and certification calls (scrub,
	// RepairSite, one worst-case search): legitimately seconds long.
	passTimeout = 120 * time.Second
	// clients is the closed-loop client count; with GOMAXPROCS(2) it is also
	// the most goroutines the harness ever runs against the system.
	clients = 2
)

// runner is one workload, built by its set-up.
type runner interface {
	// round performs one round of fixed work and records its per-round
	// samples with env.add. It returns an error only for a broken
	// invariant (a run that is invalid, not slow); failed operations are
	// counted with env.op instead.
	round() error
	// reset undoes a round outside the timed region (deletes objects).
	reset() error
	// layers runs once at the end of a traced run: it replays calls into the
	// layers below on the inputs the workload used and records per-layer
	// metrics with env.add and env.line.
	layers() error
}

// BudgetLine is one row of a workload's layer budget.
type BudgetLine struct {
	Layer string  `json:"layer"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Share float64 `json:"share"` // of the untraced end-to-end figure
	Note  string  `json:"note,omitempty"`
}

// ChildResult is what a workload's child process hands back to the parent.
type ChildResult struct {
	Workload  string               `json:"workload"`
	Samples   map[string][]float64 `json:"samples"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Rounds    int                  `json:"rounds"`
	Budget    []BudgetLine         `json:"budget,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
	Invalid   string               `json:"invalid,omitempty"` // broken invariant, if any
	// ReadyUnixNs is the wall-clock time at which set-up was complete.
	ReadyUnixNs int64 `json:"ready_unix_ns"`
}

// env is the state of one workload run inside its child process.
type env struct {
	wl        *workloadDef
	seed      uint64
	sz        sizes
	full      bool // full scale: the pinned expectations apply
	seconds   float64
	rounds    int // explicit round count (tests); 0 measures for seconds
	trace     bool
	setupOnly bool
	outDir    string
	tr        *tracer // nil in an untraced run

	// roundWall and roundCPU sum the current round's timed sections.
	roundWall, roundCPU float64

	res ChildResult
	// discard is set during warm-up: samples and op counts are dropped.
	discard bool
}

func (e *env) add(metric string, v float64) {
	if e.discard {
		return
	}
	e.res.Samples[metric] = append(e.res.Samples[metric], v)
}

// value is a recorded metric's median, 0 if it was never recorded.
func (e *env) value(metric string) float64 { return median(e.res.Samples[metric]) }

// set records a metric that has one value per run, replacing earlier ones.
func (e *env) set(metric string, v float64) {
	e.res.Samples[metric] = []float64{v}
}

// op counts one attempted operation; ok=false is a failure, time-out or
// payload mismatch.
func (e *env) op(ok bool) {
	failed := 0
	if !ok {
		failed = 1
	}
	e.ops(1, failed)
}

// ops counts a batch of attempted operations and how many of them failed.
func (e *env) ops(attempted, failed int) {
	if e.discard {
		return
	}
	e.res.Attempted += int64(attempted)
	e.res.Failed += int64(failed)
}

func (e *env) line(layer string, value float64, unit string, share float64, note string) {
	e.res.Budget = append(e.res.Budget, BudgetLine{layer, value, unit, share, note})
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "  ["+e.wl.Name+"] "+format+"\n", args...)
}

// opCtx is the per-operation deadline.
func opCtx(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, opTimeout)
}

func passCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), passTimeout)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-RSS watermark at the current
// resident set, so that VmHWM read after a round is that round's own peak.
// Where /proc/self/clear_refs cannot be written the watermark stays
// process-wide and later rounds repeat the highest peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "VmHWM:") {
			f := strings.Fields(ln)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// timed runs fn as part of the current round and adds its wall and CPU time
// to the round's. Every timing the benchmark reports passes through here: what
// a round does outside its timed sections (picking keys, wiping devices,
// deleting objects) is the harness's own work and not counted.
func (e *env) timed(fn func()) time.Duration {
	cpu0 := cpuSeconds()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	e.roundWall += d.Seconds()
	e.roundCPU += cpuSeconds() - cpu0
	return d
}

// timedRound runs one round and records its wall and CPU time (the sums of its
// timed sections) and the peak resident set the process reached during it.
// Peak RSS is taken per round and reported as the median of rounds because a
// process-wide maximum grows with the number of rounds by luck alone: about
// one certify_scale run in eight has a round that leaves a third 113 MB mask
// array resident. Between rounds the heap is collected, so that every round
// starts from the same state.
func (e *env) timedRound(r runner) (float64, error) {
	e.roundWall, e.roundCPU = 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resetPeakRSS()
	err := r.round()
	runtime.ReadMemStats(&after)
	wall := e.roundWall
	e.add("round_s", wall)
	e.add("cpu_s", e.roundCPU)
	e.add("peak_rss_mb", peakRSSMB())
	note := ""
	if e.discard {
		note = " (warm-up, discarded)"
	}
	e.logf("round %.4f s, %.4f s CPU, %d GC cycles, %.0f MB allocated%s", wall, e.roundCPU,
		after.NumGC-before.NumGC, float64(after.TotalAlloc-before.TotalAlloc)/1e6, note)
	if err != nil {
		return wall, err
	}
	if err := r.reset(); err != nil {
		return wall, err
	}
	runtime.GC()
	return wall, nil
}

// measure runs rounds until budget seconds have passed (at least atLeast
// rounds) and returns their round times.
func (e *env) measure(r runner, budget float64, atLeast int) ([]float64, error) {
	var took []float64
	t0 := time.Now()
	for {
		if e.rounds > 0 && len(took) == e.rounds {
			break
		}
		if e.rounds == 0 && len(took) >= atLeast && time.Since(t0).Seconds() >= budget {
			break
		}
		d, err := e.timedRound(r)
		if err != nil {
			return took, fmt.Errorf("round %d: %w", len(took)+1, err)
		}
		took = append(took, d)
	}
	return took, nil
}

// runChild executes one workload in this process: set-up, one discarded
// warm-up round, then the measured rounds with tracing off. A traced run
// follows them with traced rounds and the layer replays.
func runChild(e *env) ChildResult {
	runtime.GOMAXPROCS(clients)
	e.res = ChildResult{Workload: e.wl.Name, Samples: map[string][]float64{}}
	if e.trace {
		e.tr = newTracer(e.wl.TraceSample)
	}
	if err := e.run(); err != nil {
		e.res.Invalid = err.Error()
	}
	if e.res.Attempted > 0 {
		e.set("fail_share", float64(e.res.Failed)/float64(e.res.Attempted))
	}
	return e.res
}

func (e *env) run() error {
	r, err := e.wl.build(e)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	// Set-up ends here, where the first timed operation would start. Whoever
	// launched the process turns this into setup_s.
	e.res.ReadyUnixNs = time.Now().UnixNano()
	if e.setupOnly {
		return nil
	}
	e.discard = true
	_, err = e.timedRound(r)
	e.discard = false
	if err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	rounds, err := e.measure(r, e.seconds, e.wl.MinRounds)
	if err != nil {
		return err
	}
	e.res.Rounds = len(rounds)
	if !e.trace {
		return nil
	}

	// The traced rounds serve only the spans: their samples are dropped.
	kept := map[string]int{}
	for m, v := range e.res.Samples {
		kept[m] = len(v)
	}
	e.tr.on.Store(true)
	traced, err := e.measure(r, e.seconds/3, 1)
	if err != nil {
		return fmt.Errorf("traced %w", err)
	}
	for m, v := range e.res.Samples {
		e.res.Samples[m] = v[:kept[m]]
	}
	untraced := median(rounds)
	e.set("trace.overhead_share", median(traced)/untraced-1)
	e.budgetFromSpans(untraced, len(traced))
	if err := r.layers(); err != nil {
		return fmt.Errorf("layer replays: %w", err)
	}
	e.tr.on.Store(false)
	e.res.TraceFile = filepath.Join(e.outDir, "trace-"+e.wl.Name+".json")
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	return e.tr.writeFile(e.res.TraceFile)
}

// budgetFromSpans turns the traced rounds' spans into the workload's layer
// budget: self time per layer per round as a share of the untraced round, and
// the share no span accounts for. "harness" is the benchmark's own source and
// sink (payload reads, byte-for-byte comparison) inside the system's calls. A span costs ~0.4 us to record,
// which inflates layers made of microsecond calls (device) in the traced
// rounds; trace.overhead_share says by how much overall, and a negative
// residual is that inflation.
func (e *env) budgetFromSpans(untracedRound float64, rounds int) {
	self, calls, largest := e.tr.selfTimes()
	seconds, spans := map[string]float64{}, map[string]int64{}
	scale := float64(e.tr.sample) / 1e9 / float64(rounds) / float64(e.wl.Clients)
	for name, ns := range self {
		seconds[layerOf(name)] += ns * scale
		spans[layerOf(name)] += calls[name] * e.tr.sample / int64(rounds)
	}
	layers := make([]string, 0, len(seconds))
	for layer := range seconds {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	accounted := 0.0
	for _, layer := range layers {
		s := seconds[layer]
		accounted += s
		e.line(layer, s, "s/round", s/untracedRound, fmt.Sprintf("self time, %d spans/round", spans[layer]))
	}
	residual := 1 - accounted/untracedRound
	e.set("trace.budget_residual_share", residual)
	e.line("residual", residual*untracedRound, "s/round", residual, "untraced round minus all spans: harness loop outside spans, less what tracing added")
	if largest.Name != "" {
		e.line("largest span", float64(largest.EndNs-largest.StartNs)/1e9, "s", 0, largest.Name)
	}
}

// invalidf reports a broken correctness invariant: the run is invalid, not
// slow.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("invalid run: "+format, args...)
}

// mallocs returns the cumulative heap allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// allocsPer runs fn n times on the calling goroutine and returns the mean
// allocation count and bytes per call. Only meaningful while nothing else
// runs, which is true during layer replays.
func allocsPer(n int, fn func()) (count, bytes float64) {
	fn() // let lazily grown buffers settle
	c0, b0 := mallocs()
	for i := 0; i < n; i++ {
		fn()
	}
	c1, b1 := mallocs()
	return float64(c1-c0) / float64(n), float64(b1-b0) / float64(n)
}

// medianNs times fn n times and returns the median duration in nanoseconds.
func medianNs(n int, fn func()) float64 {
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ns)
}
