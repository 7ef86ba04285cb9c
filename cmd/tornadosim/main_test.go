package main

import (
	"bytes"
	"strings"
	"testing"
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
