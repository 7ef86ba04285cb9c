package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Stamp records where and how a result was taken, so that two result files
// are only ever compared knowingly.
type Stamp struct {
	Time       string  `json:"time"`
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	MemcpyGBps float64 `json:"host.memcpy_gbps"`
}

// WorkloadResult is one workload's outcome. Every metric carries its own n.
type WorkloadResult struct {
	Name      string             `json:"name"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Invalid   string             `json:"invalid,omitempty"`
	Rounds    int                `json:"rounds"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]Summary `json:"metrics"`
	Budget    []BudgetLine       `json:"budget,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// Result is a result file.
type Result struct {
	Stamp     Stamp             `json:"stamp"`
	Workloads []*WorkloadResult `json:"workloads"`
}

func (r *Result) workload(name string) *WorkloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func newStamp(o options) Stamp {
	return Stamp{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GitCommit:  gitCommit(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: clients,
		Seed:       o.seed,
		Scale:      o.scale,
		Seconds:    o.seconds,
		Traced:     o.trace != 0,
		MemcpyGBps: memcpyGBps(),
	}
}

// gitCommit is HEAD of the repository the benchmark runs in, "unknown" in a
// checkout that is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "-C", repoRoot(), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "model name") {
			if _, v, ok := strings.Cut(ln, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// memcpyGBps is the host's large-copy bandwidth: the best of three copies of
// 128 MiB into another 128 MiB buffer (256 MiB of memory traffic each),
// measured in the parent process so the buffers never count towards a
// workload's peak RSS. codec.*_mbps x codec.xor_bytes_per_user_byte is read
// against it.
func memcpyGBps() float64 {
	const size = 128 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the destination in
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		copy(dst, src)
		best = min(best, time.Since(t0))
	}
	return size / best.Seconds() / 1e9
}

func writeResult(path string, r *Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printReport prints every metric by name with unit, median, quartiles and
// sample count, and the layer budget of a traced run.
func printReport(w io.Writer, r *Result) {
	s := r.Stamp
	fmt.Fprintf(w, "commit %s  %s  %s x%d  GOMAXPROCS=%d  seed %d  scale %s  memcpy %.2f GB/s\n",
		s.GitCommit, s.GoVersion, s.CPUModel, s.NProc, s.GOMAXPROCS, s.Seed, s.Scale, s.MemcpyGBps)
	for _, wl := range r.Workloads {
		status := "correct"
		if !wl.Correct {
			status = "INCORRECT " + wl.Invalid
		}
		fmt.Fprintf(w, "\n%s  (%d rounds, %d operations, %d failed, %s)\n",
			wl.Name, wl.Rounds, wl.Attempted, wl.Failed, status)
		fmt.Fprintf(w, "  %-42s %-8s %14s %14s %14s %5s\n", "metric", "unit", "median", "q1", "q3", "n")
		defs := endToEnd
		if wl.Traced {
			defs = tracedMetrics()
		}
		for _, m := range defs {
			if sum, ok := wl.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "  %-42s %-8s %14.6g %14.6g %14.6g %5d\n", m.Name, sum.Unit, sum.Median, sum.Q1, sum.Q3, sum.N)
			}
		}
		if len(wl.Budget) > 0 {
			fmt.Fprintf(w, "  layer budget (spans: %s)\n", wl.TraceFile)
			for _, b := range wl.Budget {
				fmt.Fprintf(w, "    %-40s %12.6g %-9s %6.1f%%  %s\n", b.Layer, b.Value, b.Unit, 100*b.Share, b.Note)
			}
		}
	}
}

// driverLine is the one-line JSON object the acceptance driver reads: the
// gated end-to-end metrics of an untraced run, or every traced metric (0 where
// a workload does not exercise it) of a traced one.
func driverLine(w *WorkloadResult, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := gatedMetrics()
	if traced {
		defs = tracedMetrics()
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.Name] = value{w.Metrics[m.Name].Median, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, max(w.Attempted, 1), w.Failed, metrics})
	return string(line), err
}
