package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tornado"
)

// TestEmptyWindowIsAUsageError: a profile or sampled campaign whose
// -mink..-maxk window holds no cardinality is a usage error — exit 2 and a
// message naming the window — and leaves no campaign directory behind,
// instead of reporting "shards 0/0" and a profile of nothing.
func TestEmptyWindowIsAUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "profile", "-mink", "50", "-maxk", "10", "-trials", "1000"},
		{"-kind", "sampled", "-mink", "6", "-maxk", "5"},
	} {
		dir := filepath.Join(t.TempDir(), "camp")
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"run", "-dir", dir, "-graph", "../../precompiled/tornado96-1.graphml", "-quiet"}, args...), &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "no cardinality") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and the usage message", args, code, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: the refused campaign left %s behind (%v)", args, dir, err)
		}
	}
}

// TestProfileSummaryNeedsFullWindow: a profile campaign prints the one
// summary of a profile (FailureProfile.Report) of the in-memory profile at
// the same seed with the KeepGoing worst case folded in, over a partial
// window (the full-window notice) and the full one (the figures).
func TestProfileSummaryNeedsFullWindow(t *testing.T) {
	ctx := context.Background()
	g, err := tornado.LoadGraphML("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	wc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{4, 8}, {0, 0}} {
		p, err := tornado.ProfileCtx(ctx, g, tornado.ProfileOptions{Trials: 1000, MinK: w[0], MaxK: w[1], Seed: 2006})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddExact(wc); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "camp")
		var stdout, stderr bytes.Buffer
		args := []string{"run", "-dir", dir, "-graph", "../../precompiled/tornado96-1.graphml", "-quiet", "-kind", "profile", "-trials", "1000",
			"-mink", fmt.Sprint(w[0]), "-maxk", fmt.Sprint(w[1])}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", w, code, stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), p.Report()) {
			t.Errorf("window %v: output\n%s\ndoes not open with the profile's report\n%s", w, stdout.String(), p.Report())
		}
	}
}

// TestProfileReportsTheCertifiedFirstFailure: a profile campaign folds the
// worst-case search in, so on the seed-2006 graph, whose certified first
// failure is 4 (3 failing 4-sets), the narrow window 4..8 reports 4, not
// the first failure its 100,000 sampled orders happen to show, 7.
func TestProfileReportsTheCertifiedFirstFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	var stdout, stderr bytes.Buffer
	args := []string{"run", "-dir", dir, "-seed", "2006", "-quiet", "-kind", "profile", "-trials", "100000", "-mink", "4", "-maxk", "8"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !regexp.MustCompile(`first observed failure: *4 offline nodes`).MatchString(stdout.String()) {
		t.Errorf("first failure is not the certified 4:\n%s", stdout.String())
	}
}
