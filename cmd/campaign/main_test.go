package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestProfileSummaryNeedsFullWindow: the average nodes to reconstruct and
// the 50% overhead read the failure fraction at every offline count, so a
// profile of a partial -mink..-maxk window prints a line saying they need
// the full window instead of numbers, and a full-window profile prints them.
func TestProfileSummaryNeedsFullWindow(t *testing.T) {
	for _, c := range []struct {
		window []string
		full   bool
	}{
		{[]string{"-mink", "4", "-maxk", "8"}, false},
		{nil, true},
	} {
		dir := filepath.Join(t.TempDir(), "camp")
		var stdout, stderr bytes.Buffer
		args := append([]string{"run", "-dir", dir, "-graph", "../../precompiled/tornado96-1.graphml", "-quiet", "-kind", "profile", "-trials", "1000"}, c.window...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", c.window, code, stderr.String())
		}
		out := stdout.String()
		for _, line := range []string{"avg nodes to reconstruct: ", "50% reconstruction overhead: "} {
			if strings.Contains(out, line) != c.full {
				t.Errorf("window %v: %q printed %v, want %v; output:\n%s", c.window, line, !c.full, c.full, out)
			}
		}
		if strings.Contains(out, "need the full window (-mink 1 -maxk 96)") == c.full {
			t.Errorf("window %v: full-window notice printed %v, want %v; output:\n%s", c.window, c.full, !c.full, out)
		}
	}
}
