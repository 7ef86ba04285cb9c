package exp

import (
	"fmt"
	"strings"
)

// CurvesCSV renders the failure-fraction curves of the given systems as
// CSV: one row per offline-node count, one column per system. This is the
// data behind Figures 3–6 (fraction of reconstruction failures by number
// of missing nodes).
func CurvesCSV(systems []System) string {
	if len(systems) == 0 {
		return ""
	}
	n := systems[0].Devices
	var b strings.Builder
	b.WriteString("offline")
	for _, s := range systems {
		b.WriteString(",")
		b.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	b.WriteByte('\n')
	for k := 0; k <= n; k++ {
		fmt.Fprintf(&b, "%d", k)
		for _, s := range systems {
			fmt.Fprintf(&b, ",%.6g", s.FailGivenK(k))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
