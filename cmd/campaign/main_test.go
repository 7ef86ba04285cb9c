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
