package defect

import (
	"slices"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/graph"
)

// ReferenceScan is the deliberately simple data-level scanner —
// lexicographic enumeration, one count map per subset — kept as the
// differential-testing oracle for the closed-set search (the role
// decode.ReferenceRecoverable plays for the peeling kernel).
// ScanDataLevelCtx returns the same findings in the same order.
func ReferenceScan(g *graph.Graph, maxSize int) []Finding {
	var findings []Finding
	maxSize = min(maxSize, g.Data)
	S := make([]int, 0, maxSize)
	for size := 2; size <= maxSize; size++ {
		combin.ForEach(g.Data, size, func(idx []int) bool {
			S = append(S[:0], idx...)
			if containsFound(findings, S) {
				return true
			}
			if rights, ok := IsClosedSet(g, S); ok {
				findings = append(findings, Finding{Lefts: slices.Clone(S), Rights: rights})
			}
			return true
		})
	}
	return findings
}

// MustScanData is ScanDataLevelCtx for tests that never cancel: default
// workers, and a scan error fails the test.
func MustScanData(tb testing.TB, g *graph.Graph, maxSize int) []Finding {
	tb.Helper()
	fs, err := ScanDataLevelCtx(tb.Context(), g, maxSize, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// Update is Screen.Update for one edit of g.
func Update(g *graph.Graph, fs []Finding, l, maxSize int) []Finding {
	return NewScreen(g).Update(fs, l, maxSize)
}

// containsFound reports whether S is a superset of an already-reported
// closed set (S is then non-minimal and suppressed).
func containsFound(findings []Finding, S []int) bool {
	for _, f := range findings {
		if subset(f.Lefts, S) {
			return true
		}
	}
	return false
}
