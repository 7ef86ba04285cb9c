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
	return referenceScanRange(g, 0, 0, g.Data, maxSize)
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

// ReferenceScanLevel is ReferenceScan over level li's left range; it is the
// oracle for ScanLevelCtx.
func ReferenceScanLevel(g *graph.Graph, li, maxSize int) []Finding {
	if li < 0 || li >= len(g.Levels) {
		return nil
	}
	lv := g.Levels[li]
	return referenceScanRange(g, li, lv.LeftFirst, lv.LeftCount, maxSize)
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

func referenceScanRange(g *graph.Graph, level, leftFirst, leftCount, maxSize int) []Finding {
	var findings []Finding
	if maxSize > leftCount {
		maxSize = leftCount
	}
	S := make([]int, 0, maxSize)
	for size := 2; size <= maxSize; size++ {
		combin.ForEach(leftCount, size, func(idx []int) bool {
			S = S[:0]
			for _, i := range idx {
				S = append(S, leftFirst+i)
			}
			if containsFound(findings, S) {
				return true
			}
			if rights, ok := IsClosedSet(g, S); ok {
				findings = append(findings, Finding{
					Level:  level,
					Lefts:  slices.Clone(S),
					Rights: rights,
				})
			}
			return true
		})
	}
	return findings
}
