package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json, the file the acceptance driver reads.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// fromCatalogue is the BENCHMARK.json the catalogue implies.
func fromCatalogue() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, wl := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{wl.Name, wl.Why})
	}
	for _, m := range gatedMetrics() {
		bound := m.Bound
		b.EndToEnd = append(b.EndToEnd, jsonMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range tracedMetrics() {
		b.PerLayer = append(b.PerLayer, jsonMetric{m.Name, m.Unit, m.Better, nil})
	}
	return b
}

// TestBenchmarkJSON fails when BENCHMARK.json and the catalogue drift apart,
// or when either leaves the limits the driver enforces.
func TestBenchmarkJSON(t *testing.T) {
	want := fromCatalogue()
	wantText, _ := json.MarshalIndent(want, "", "  ")
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("%v\nBENCHMARK.json should read:\n%s", err, wantText)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; it should read:\n%s", wantText)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, wl := range want.Workloads {
		check(wl.Name)
		if len(wl.Why) > 200 || strings.ContainsAny(wl.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", wl.Name, len(wl.Why))
		}
	}
	setup := false
	for _, m := range append(append([]jsonMetric{}, want.EndToEnd...), want.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !setup {
		t.Error("end_to_end must contain setup_s in s, lower is better")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, in this
// process: it proves the harness compiles against the repository and runs,
// that every run is correct, that a workload emits only metrics the catalogue
// declares and all the end-to-end ones declared for it, and that every
// declared per-layer metric comes from somewhere.
func TestSmoke(t *testing.T) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			panic("bench smoke test exceeded 60 s: a workload hangs")
		}
	}()
	defer close(done)

	emitted := map[string]bool{"host.memcpy_gbps": true} // measured by the parent, stamped on the result
	for _, traced := range []bool{false, true} {
		for i := range workloads {
			wl := &workloads[i]
			e := &env{wl: wl, seed: 2006, sz: scales["smoke"], rounds: 1, trace: traced, outDir: t.TempDir()}
			res := runChild(e)
			if res.Invalid != "" || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: invalid=%q failed=%d attempted=%d", wl.Name, traced, res.Invalid, res.Failed, res.Attempted)
				continue
			}
			for name, samples := range res.Samples {
				emitted[name] = true
				m := findMetric(name)
				if m == nil {
					t.Errorf("%s traced=%v: emits undeclared metric %q", wl.Name, traced, name)
					continue
				}
				for _, v := range samples {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s traced=%v: %s = %v", wl.Name, traced, name, v)
					}
				}
			}
			if res.ReadyUnixNs == 0 {
				t.Errorf("%s traced=%v: set-up never reported ready", wl.Name, traced)
			}
			for _, m := range endToEnd {
				// setup_s is taken by whoever launches the workload's process.
				if _, ok := res.Samples[m.Name]; m.appliesTo(wl.Name) && !ok && m.Name != "setup_s" {
					t.Errorf("%s traced=%v: end-to-end metric %s missing", wl.Name, traced, m.Name)
				}
			}
			if traced {
				if len(res.Budget) == 0 {
					t.Errorf("%s: traced run printed no layer budget", wl.Name)
				}
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", wl.Name, err)
				}
			}
		}
	}
	// The other direction of the drift: every per-layer metric the catalogue
	// declares is emitted by some workload.
	for _, m := range perLayer {
		if !emitted[m.Name] {
			t.Errorf("no workload emits %s", m.Name)
		}
	}
}

// TestOnlyAPIFileImportsTheRepository pins the API surface: api.go alone may
// import the module under test.
func TestOnlyAPIFileImportsTheRepository(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "api.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "tornado" || strings.HasPrefix(p, "tornado/") {
				t.Errorf("%s imports %s; only api.go may", f, p)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "round_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "repair_bytes_per_lost_byte", Better: "lower", Bound: 0}
	tight := func(v float64) Summary { return Summary{Median: v, Q1: v * 0.99, Q3: v * 1.01, N: 9} }
	wide := func(v float64) Summary { return Summary{Median: v, Q1: v * 0.9, Q3: v * 1.1, N: 9} }
	for _, c := range []struct {
		m         metricDef
		base, cur Summary
		want      verdict
	}{
		{lower, tight(1), tight(1.05), unchanged},
		{lower, tight(1), tight(1.2), regressed},
		{lower, tight(1), tight(0.8), improved},
		{lower, wide(1), tight(1.5), unresolved},
		{higher, tight(100), tight(80), regressed},
		{higher, tight(100), tight(120), improved},
		{exact, tight(24), tight(24), unchanged},
		{exact, tight(24), tight(24.5), regressed},
		{metricDef{Name: "fail_share", Better: "lower"}, Summary{}, Summary{Median: 0.01}, regressed},
	} {
		if got := judge(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.base.Median, c.cur.Median, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins summarize to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize("", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	if s := summarize("", []float64{3}); s.Q1 != 3 || s.Median != 3 || s.Q3 != 3 {
		t.Errorf("single sample: %+v", s)
	}
}
