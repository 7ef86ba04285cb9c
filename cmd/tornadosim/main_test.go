package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tornado"
	"tornado/internal/raid"
)

// TestEmptyWindowIsAUsageError: a -mink..-maxk window that holds no offline
// count is a usage error — exit 2, a message naming the window and no CSV —
// not a profile of k = 0 alone.
func TestEmptyWindowIsAUsageError(t *testing.T) {
	for _, args := range [][]string{{"-mink", "50", "-maxk", "10"}, {"-mink", "97"}} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-graph", "../../precompiled/tornado96-1.graphml"}, args...), &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "no offline count") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and the usage message", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestSummaryNeedsFullWindow: -summary prints the one summary of a
// profile (FailureProfile.Report) of the in-memory profile at the same seed
// with the KeepGoing worst case folded in, and nothing else, over a partial
// window (the full-window notice) and the full one (the figures).
func TestSummaryNeedsFullWindow(t *testing.T) {
	ctx := context.Background()
	g, err := tornado.LoadGraphML("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{4, 8}, {1, 0}} {
		p, err := tornado.ProfileCtx(ctx, g, tornado.ProfileOptions{Trials: 1000, MinK: w[0], MaxK: w[1], Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddExact(wc); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		args := []string{"-graph", "../../precompiled/tornado96-1.graphml", "-summary", "-trials", "1000", "-mink", fmt.Sprint(w[0]), "-maxk", fmt.Sprint(w[1])}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", w, code, stderr.String())
		}
		if stdout.String() != p.Report() {
			t.Errorf("window %v: output\n%s\nis not the profile's report\n%s", w, stdout.String(), p.Report())
		}
	}
}

// TestLifetimeTrialsDefault: -trials counts arrival orders for the profile
// and lifetimes for -lifetime, and left unset it is each mode's library
// default — 200 lifetimes, not the profile's 20,000 orders.
func TestLifetimeTrialsDefault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mirror4.graphml")
	if err := tornado.SaveGraphML(path, raid.MirroredGraph(4)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		trials []string
		want   string
	}{
		{nil, "(200 runs"},
		{[]string{"-trials", "7"}, "(7 runs"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-graph", path, "-lifetime", "-lambda", "1"}, c.trials...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", c.trials, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), c.want) {
			t.Errorf("%v: output %q, want %q", c.trials, stdout.String(), c.want)
		}
	}
}

// TestSummaryFoldsTheWorstCase: P(fail) at AFR 1% is set by the rare
// low-k failures, which sampling misses and the worst-case search counts.
// On tornado96-1 the summary reports the certified first failure, 5, and a
// P(fail) no smaller than the k=5 term alone: C(96,5) · 0.01⁵ · 0.99⁹¹ ·
// 16/C(96,5) ≈ 6.41e-10. The sample alone first fails near k = 12.
func TestSummaryFoldsTheWorstCase(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-graph", "../../precompiled/tornado96-1.graphml", "-summary", "-trials", "1000"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "first observed failure:   5 offline nodes") {
		t.Errorf("first failure is not 5:\n%s", out)
	}
	var pfail float64
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "P(fail) at AFR 1%:"); ok {
			if _, err := fmt.Sscan(rest, &pfail); err != nil {
				t.Fatalf("P(fail) line %q: %v", line, err)
			}
		}
	}
	if pfail < 6.41e-10 {
		t.Errorf("P(fail) = %g, want at least the k=5 term 6.41e-10:\n%s", pfail, out)
	}
}
