package tornado_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tornado"
)

func TestPrecompiledNames(t *testing.T) {
	names := tornado.PrecompiledNames()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 shipped graphs, got %v", names)
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "tornado96-") {
			t.Errorf("unexpected name %q", n)
		}
	}
}

func TestLoadPrecompiledGraphsAreCertifiablyGood(t *testing.T) {
	for _, name := range tornado.PrecompiledNames() {
		g, err := tornado.LoadPrecompiled(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Total != 96 || g.Data != 48 {
			t.Errorf("%s: shape %v", name, g)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// No structural defects.
		if defects, err := tornado.ScanDefectsCtx(ctx, g, 3, 0); err != nil || len(defects) != 0 {
			t.Errorf("%s: defects %v (%v)", name, defects, err)
		}
		// Quick re-certification: must tolerate any 3 losses (the shipped
		// certificates claim at least first failure 4).
		wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: 3})
		if err != nil {
			t.Fatal(err)
		}
		if wc.Found {
			t.Errorf("%s: first failure %d contradicts its certificate", name, wc.FirstFailure)
		}
	}
}

func TestPrecompiledCertificates(t *testing.T) {
	for _, name := range tornado.PrecompiledNames() {
		cert, err := tornado.PrecompiledCertificate(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range []string{"seed:", "first-failure:", "k=1:"} {
			if !strings.Contains(cert, want) {
				t.Errorf("%s certificate missing %q:\n%s", name, want, cert)
			}
		}
	}
}

// TestShippedCertsMatchGraphs recomputes every shipped certificate from its
// graph — what cmd/precompile's certification step writes (-certify 5):
// edges, average data degree, the k= lines, first failure and the critical
// sets — and requires the shipped file to say exactly that. It also pins
// the k=6 failure counts EXPERIMENTS.md reports for the three graphs.
func TestShippedCertsMatchGraphs(t *testing.T) {
	k6 := map[string]int64{"tornado96-1": 1503, "tornado96-2": 4764, "tornado96-3": 13587}
	for _, name := range tornado.PrecompiledNames() {
		g, err := tornado.LoadPrecompiled(name)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := tornado.PrecompiledCertificate(name)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, line := range strings.Split(cert, "\n") {
			for _, prefix := range []string{"edges:", "avg-data-degree:", "k=", "first-failure:", "critical-set:"} {
				if strings.HasPrefix(line, prefix) {
					want = append(want, line)
				}
			}
		}
		wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := []string{fmt.Sprintf("edges: %d", g.EdgeCount()), fmt.Sprintf("avg-data-degree: %.3f", g.AvgDataDegree())}
		for _, kr := range wc.PerK {
			got = append(got, fmt.Sprintf("k=%d: %d failures / %d combinations", kr.K, kr.FailureCount, kr.Tested))
		}
		if wc.Found {
			got = append(got, fmt.Sprintf("first-failure: %d", wc.FirstFailure))
			for _, f := range wc.PerK[len(wc.PerK)-1].Failures {
				got = append(got, fmt.Sprintf("critical-set: %v", f))
			}
		} else {
			got = append(got, "first-failure: none-found")
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: recomputed certificate\n%s\nshipped\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}

		if n, ok := k6[name]; ok {
			wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: 6, KeepGoing: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := wc.PerK[5].FailureCount; got != n {
				t.Errorf("%s: %d failing 6-sets, want %d", name, got, n)
			}
		}
	}
}

// TestMirroredCriticalSetsJointlyRecoverable is the paper's §5.3 exchange
// claim on the shipped graphs: for every pair and the triple, every
// certified critical set of every member — which defeats its home site
// alone — erased identically at all sites at once is jointly recoverable.
// The detected joint first failures of EXPERIMENTS.md's Table 7 extension
// (search seed 2006, 8 restarts) ride along: the seeded search walks the
// same path as long as every JointDecode verdict is the same.
func TestMirroredCriticalSetsJointlyRecoverable(t *testing.T) {
	names := []string{"tornado96-1", "tornado96-2", "tornado96-3"}
	graphs := make([]*tornado.Graph, len(names))
	critical := make([][][]int, len(names))
	for i, name := range names {
		var err error
		if graphs[i], err = tornado.LoadPrecompiled(name); err != nil {
			t.Fatal(err)
		}
		cert, err := tornado.PrecompiledCertificate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(cert, "\n") {
			rest, ok := strings.CutPrefix(line, "critical-set:")
			if !ok {
				continue
			}
			var set []int
			for _, f := range strings.Fields(strings.Trim(rest, " []")) {
				v, err := strconv.Atoi(f)
				if err != nil {
					t.Fatalf("%s: bad critical-set line %q", name, line)
				}
				set = append(set, v)
			}
			if tornado.NewDecoder(graphs[i]).Recoverable(set) {
				t.Errorf("%s: certified critical set %v is recoverable at its home site", name, set)
			}
			critical[i] = append(critical[i], set)
		}
		if len(critical[i]) == 0 {
			t.Fatalf("%s: certificate lists no critical set", name)
		}
	}
	detected := []int{25, 15, 19, 32}
	for ci, combo := range [][]int{{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}} {
		sites := make([]*tornado.Graph, len(combo))
		sets := make([][]tornado.CriticalSet, len(combo))
		for i, gi := range combo {
			sites[i] = graphs[gi]
			sets[i] = tornado.CriticalSetsOf(graphs[gi], critical[gi])
		}
		sys, err := tornado.NewFederation(sites...)
		if err != nil {
			t.Fatal(err)
		}
		for _, gi := range combo {
			for _, set := range critical[gi] {
				erased := make([][]int, len(combo))
				for i := range erased {
					erased[i] = set
				}
				if !sys.JointRecoverable(erased) {
					t.Errorf("sites %v: %s critical set %v mirrored at every site is not jointly recoverable", combo, names[gi], set)
				}
			}
		}
		det, err := sys.DetectFirstFailureCtx(ctx, sets, tornado.FederationSearchOptions{Seed: 2006, Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		if det.TotalErased != detected[ci] {
			t.Errorf("sites %v: detected joint first failure %d, want %d", combo, det.TotalErased, detected[ci])
		}
	}
}

func TestLoadPrecompiledUnknown(t *testing.T) {
	if _, err := tornado.LoadPrecompiled("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := tornado.PrecompiledCertificate("nope"); err == nil {
		t.Error("unknown certificate accepted")
	}
}

func TestPrecompiledGraphUsableEndToEnd(t *testing.T) {
	g, err := tornado.LoadPrecompiled("tornado96-1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tornado.NewCodec(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("certified ", 30))
	blocks, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	blocks[0], blocks[50], blocks[95] = nil, nil, nil
	got, err := c.Decode(blocks, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Error("round trip mismatch")
	}
}
