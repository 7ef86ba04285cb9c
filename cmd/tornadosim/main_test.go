package main

import (
	"bytes"
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

// TestSummaryNeedsFullWindow: -summary's average nodes to reconstruct, 50%
// success point and P(fail) at AFR 1% read the failure fraction at every
// offline count, so a partial -mink..-maxk window prints a line saying they
// need the full window instead of numbers, and the full window prints them.
func TestSummaryNeedsFullWindow(t *testing.T) {
	lines := []string{"avg nodes to reconstruct: ", "nodes for 50% success: ", "P(fail) at AFR 1%: "}
	for _, c := range []struct {
		window []string
		full   bool
	}{
		{[]string{"-mink", "4", "-maxk", "8"}, false},
		{nil, true},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-graph", "../../precompiled/tornado96-1.graphml", "-summary", "-trials", "1000"}, c.window...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", c.window, code, stderr.String())
		}
		out := stdout.String()
		for _, line := range lines {
			if strings.Contains(out, line) != c.full {
				t.Errorf("window %v: %q printed %v, want %v; output:\n%s", c.window, line, !c.full, c.full, out)
			}
		}
		if strings.Contains(out, "need the full window (-mink 1 -maxk 96)") == c.full {
			t.Errorf("window %v: full-window notice printed %v, want %v; output:\n%s", c.window, c.full, !c.full, out)
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
