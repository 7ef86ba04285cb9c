package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with GRAPHCHECK_MAIN set, so a test drives main through its flags.
func TestMain(m *testing.M) {
	if os.Getenv("GRAPHCHECK_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProfileFoldsTheWorstCase: with no -maxk the search runs to the
// library's default bound, 5, so on tornado96-1 it reports the certified
// first failure, 5 lost nodes in 16 of the C(96,5) patterns. P(fail) with
// the search folded in is tornadosim -summary's
// (TestSummaryFoldsTheWorstCase).
func TestProfileFoldsTheWorstCase(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-precompiled", "tornado96-1")
	cmd.Env = append(os.Environ(), "GRAPHCHECK_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	if !strings.Contains(string(out), "FIRST FAILURE at 5 lost nodes (16/61124064 patterns)") {
		t.Errorf("first failure is not 5 (16 patterns):\n%s", out)
	}
}
