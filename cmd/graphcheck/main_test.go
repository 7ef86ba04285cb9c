package main

import (
	"fmt"
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

// TestProfileFoldsTheWorstCase: -profile composes P(fail) at AFR 1% from
// the profile with the search's cardinalities folded in, so on tornado96-1
// to -maxk 5 it is no smaller than the k=5 term the search counts,
// C(96,5) · 0.01⁵ · 0.99⁹¹ · 16/C(96,5) ≈ 6.41e-10, which the sample
// alone, reading 0 through k ≈ 12, misses by four orders of magnitude.
func TestProfileFoldsTheWorstCase(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-precompiled", "tornado96-1", "-maxk", "5", "-profile", "-trials", "1000")
	cmd.Env = append(os.Environ(), "GRAPHCHECK_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	if !strings.Contains(string(out), "FIRST FAILURE at 5 lost nodes (16/61124064 patterns)") {
		t.Errorf("first failure is not 5 (16 patterns):\n%s", out)
	}
	var pfail float64
	for _, line := range strings.Split(string(out), "\n") {
		if _, rest, ok := strings.Cut(line, "P(fail) at AFR 1%:"); ok {
			if _, err := fmt.Sscan(rest, &pfail); err != nil {
				t.Fatalf("P(fail) line %q: %v", line, err)
			}
		}
	}
	if pfail < 6.41e-10 {
		t.Errorf("P(fail) = %g, want at least the k=5 term 6.41e-10:\n%s", pfail, out)
	}
}
