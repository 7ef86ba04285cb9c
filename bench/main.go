// Command bench is the repository's benchmark: six workloads, each in its own
// child process, every output checked for correctness, every timing a median
// over rounds of fixed work after one discarded warm-up round. See README.md.
//
//	go run -C bench . -workload all -seed 2006         every workload, end to end
//	go run -C bench . -workload serve_cold -trace 1    one workload, traced: per-layer metrics and the layer budget
//	go run -C bench . -compare a.json b.json           verdict per workload x metric, non-zero exit on a regression
//	go run -C bench . -calibrate                       the suite twice on this tree: observed spread beside each bound
//
// The acceptance driver runs `bash bench/run.sh --workload W --seed N
// --seconds S --trace 0|1` and reads the last line of standard output.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// setupRuns is how many times a workload is set up per untraced run (the
// measuring child plus setupRuns-1 children that stop after set-up); setup_s
// is the median.
const setupRuns = 5

// childTimeout keeps a whole run under the driver's 180 s per-run limit.
const childTimeout = 170 * time.Second

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	scale     string
	child     bool
	setupOnly bool
	compare   bool
	calibrate bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 2006, "seed every input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload (rounds are added until they have passed)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the separate traced run: per-layer metrics, span files, layer budgets")
	flag.StringVar(&o.scale, "scale", "full", "full, or smoke (tiny sizes: proves the harness runs, measures nothing)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&o.calibrate, "calibrate", false, "run the suite twice on this tree and print observed spread beside each bound")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after set-up")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	sz, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown -scale %q", o.scale)
	}
	outDir := filepath.Join(repoRoot(), "bench", "out")
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case o.child:
		wl := findWorkload(o.workload)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		e := &env{wl: wl, seed: o.seed, sz: sz, full: o.scale == "full", seconds: o.seconds,
			trace: o.trace != 0, setupOnly: o.setupOnly, outDir: outDir}
		return json.NewEncoder(os.Stdout).Encode(runChild(e))
	case o.calibrate:
		return calibrate(o)
	}

	var names []string
	if o.workload == "all" {
		for _, wl := range workloads {
			names = append(names, wl.Name)
		}
	} else if findWorkload(o.workload) == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	} else {
		names = []string{o.workload}
	}
	res, err := runSuite(o, names)
	if err != nil {
		return err
	}
	printReport(os.Stdout, res)
	tag := o.workload
	if o.trace != 0 {
		tag += "-trace"
	}
	path := filepath.Join(outDir, "result-"+tag+".json")
	if err := writeResult(path, res); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", path)
	if o.workload != "all" {
		// The acceptance driver reads this, the last line of standard output.
		line, err := driverLine(res.Workloads[0], o.trace != 0)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	for _, w := range res.Workloads {
		if !w.Correct {
			return fmt.Errorf("%s: incorrect run: %d of %d operations failed %s", w.Name, w.Failed, w.Attempted, w.Invalid)
		}
	}
	return nil
}

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json; the working directory if none does.
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			return wd
		}
	}
}

// runSuite runs the named workloads one after another, each in child
// processes of its own, and stamps the result.
func runSuite(o options, names []string) (*Result, error) {
	res := &Result{Stamp: newStamp(o)}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%s\n", name)
		w, err := runWorkload(o, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if w.Traced {
			w.Metrics["host.memcpy_gbps"] = summarize("GB/s", []float64{res.Stamp.MemcpyGBps})
		}
		res.Workloads = append(res.Workloads, w)
	}
	return res, nil
}

// runWorkload re-executes this binary once per set-up repetition and once for
// the measured run, so that peak RSS, GC state and caches belong to one
// workload alone. setup_s is taken from outside: from just before the parent
// launches a child to the moment the child has finished set-up, so that
// process start and package initialisation count.
func runWorkload(o options, name string) (*WorkloadResult, error) {
	traced := o.trace != 0
	var c *ChildResult
	var setups []float64
	for i := 1; i <= setupRuns; i++ {
		setupOnly := i < setupRuns
		if traced && setupOnly {
			continue
		}
		spawned := time.Now().UnixNano()
		var err error
		if c, err = spawnChild(o, name, setupOnly); err != nil {
			return nil, err
		}
		if c.ReadyUnixNs == 0 {
			return nil, fmt.Errorf("set-up failed: %s", c.Invalid)
		}
		setups = append(setups, float64(c.ReadyUnixNs-spawned)/1e9)
	}
	c.Samples["setup_s"] = setups

	w := &WorkloadResult{Name: name, Traced: traced, Rounds: c.Rounds, Attempted: c.Attempted, Failed: c.Failed,
		Invalid: c.Invalid, Metrics: map[string]Summary{}, Budget: c.Budget, TraceFile: c.TraceFile}
	w.Correct = c.Invalid == "" && c.Failed == 0 && c.Attempted > 0
	defs := endToEnd
	if traced {
		defs = tracedMetrics()
	}
	for _, m := range defs {
		if samples, ok := c.Samples[m.Name]; ok && (traced || m.appliesTo(name)) {
			w.Metrics[m.Name] = summarize(m.Unit, samples)
		}
	}
	return w, nil
}

func spawnChild(o options, name string, setupOnly bool) (*ChildResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-scale", o.scale}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var c ChildResult
	if err := json.Unmarshal(stdout.Bytes(), &c); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &c, nil
}
