package exp

import (
	"fmt"
	"strings"
	"testing"
)

// TestTableOverhead: the overhead table is a view of each graph's failure
// profile, so one run prints one answer — its mean is the average to
// reconstruct Table 1 prints and its median is Table 6's node count.
func TestTableOverhead(t *testing.T) {
	cfg := tinyConfig()
	tgs := prepare(t)
	text, means, err := TableOverhead(cfg, tgs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Overhead") {
		t.Errorf("table:\n%s", text)
	}
	if len(means) != 3 {
		t.Fatalf("means: %v", means)
	}
	_, systems := Table1(cfg, tgs)
	_, nodes := Table6(tgs)
	for i, tg := range tgs {
		m := means[i]
		// Minimum retrieval count lies between the data count and the
		// total node count.
		if m < 48 || m > 96 {
			t.Errorf("graph %d mean retrievals = %v", i+1, m)
		}
		if want := tg.Profile.AvgNodesToReconstruct(); m != want {
			t.Errorf("%s: overhead mean %v, profile average to reconstruct %v", tg.Name, m, want)
		}
		// The printed row: name, Mean, Median, p99, Overhead. Table 1 swaps
		// in the exhaustive certification's exact failure fractions up to
		// the first failure, all of order 1e-6 here, so the printed means
		// agree.
		var row []string
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, tg.Name+" ") {
				row = strings.Fields(strings.TrimPrefix(line, tg.Name))
			}
		}
		if len(row) != 4 {
			t.Fatalf("%s: no row in the overhead table:\n%s", tg.Name, text)
		}
		sys := systems[len(systems)-len(tgs)+i]
		if want := fmt.Sprintf("%.2f", sys.AvgToReconstruct()); sys.Name != tg.Name || row[0] != want {
			t.Errorf("%s: overhead mean %s, Table 1 row %q prints %s", tg.Name, row[0], sys.Name, want)
		}
		if want := fmt.Sprint(nodes[i]); row[1] != want {
			t.Errorf("%s: overhead median %s, Table 6 nodes %s", tg.Name, row[1], want)
		}
	}
}

func TestTableMTTDL(t *testing.T) {
	cfg := tinyConfig()
	text, noRepair, err := TableMTTDL(cfg, prepare(t), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "no repair") || !strings.Contains(text, "rebuild") {
		t.Errorf("table:\n%s", text)
	}
	// Shape: tornado graphs dominate mirroring which dominates striping.
	if noRepair["Striping"] >= noRepair["Mirrored"] {
		t.Errorf("striping MTTDL %v >= mirrored %v", noRepair["Striping"], noRepair["Mirrored"])
	}
	for _, tg := range prepare(t) {
		if noRepair[tg.Name] <= noRepair["Mirrored"] {
			t.Errorf("%s MTTDL %v <= mirrored %v", tg.Name, noRepair[tg.Name], noRepair["Mirrored"])
		}
	}
}

func TestTableLEC(t *testing.T) {
	cfg := tinyConfig()
	text, systems, err := TableLEC(cfg, prepare(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "LEC-style") || !strings.Contains(text, "(best)") {
		t.Errorf("table:\n%s", text)
	}
	if len(systems) != 2 {
		t.Fatalf("systems: %v", systems)
	}
	// Both systems must produce sane averages.
	for _, s := range systems {
		if avg := s.AvgToReconstruct(); avg < 48 || avg > 96 {
			t.Errorf("%s avg = %v", s.Name, avg)
		}
	}
}

func TestFormatYears(t *testing.T) {
	for y, want := range map[float64]string{
		0.5:   "0.5 y",
		2000:  "2 ky",
		3.2e6: "3.2 My",
	} {
		if got := formatYears(y); got != want {
			t.Errorf("formatYears(%v) = %q, want %q", y, got, want)
		}
	}
}
