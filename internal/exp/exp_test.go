package exp

import (
	"strings"
	"testing"
)

// tinyConfig keeps unit tests fast: light sampling, adjustment to k=3,
// certification to k=3 (the paper-shape assertions live in the benchmark
// harness and cmd/experiments, which use Quick/Full).
func tinyConfig() Config {
	return Config{Trials: 400, AdjustK: 3, CertifyK: 4, Seeds: []uint64{2006, 2007, 2011}}
}

// prepared caches the three tornado graphs across tests in this package.
var prepared []*TornadoGraph

func prepare(t *testing.T) []*TornadoGraph {
	t.Helper()
	if prepared != nil {
		return prepared
	}
	cfg := tinyConfig()
	for i := range cfg.Seeds {
		tg, err := PrepareTornado(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, tg)
	}
	return prepared
}

func TestPrepareTornado(t *testing.T) {
	tgs := prepare(t)
	for _, tg := range tgs {
		if tg.Graph.Total != 96 {
			t.Errorf("%s: total = %d", tg.Name, tg.Graph.Total)
		}
		// Adjustment cleared k<=3, so any first failure found at
		// certification must be above 3 — or none found at all.
		if tg.FirstFailure != 0 && tg.FirstFailure <= 3 {
			t.Errorf("%s: first failure %d after clearing 3", tg.Name, tg.FirstFailure)
		}
		if tg.Profile == nil {
			t.Errorf("%s: no profile", tg.Name)
		}
	}
}

func TestPrepareTornadoBadIndex(t *testing.T) {
	if _, err := PrepareTornado(tinyConfig(), 9); err == nil {
		t.Error("bad index accepted")
	}
}

func TestTable1(t *testing.T) {
	cfg := tinyConfig()
	text, systems := Table1(cfg, prepare(t))
	if !strings.Contains(text, "RAID5") || !strings.Contains(text, "Tornado Graph 1") {
		t.Errorf("table missing rows:\n%s", text)
	}
	if len(systems) != 7 {
		t.Fatalf("got %d systems", len(systems))
	}
	// Paper shape: mirroring first-fails at 2, RAID5 at 2, RAID6 at 3;
	// adjusted tornado graphs strictly later.
	byName := map[string]System{}
	for _, s := range systems {
		byName[s.Name] = s
	}
	if byName["Mirrored"].FirstFailure != 2 || byName["RAID5 (8x12)"].FirstFailure != 2 {
		t.Error("baseline first failures wrong")
	}
	if byName["RAID6 (8x12)"].FirstFailure != 3 {
		t.Error("RAID6 first failure wrong")
	}
	for _, tg := range prepare(t) {
		s := byName[tg.Name]
		if s.FirstFailure != 0 && s.FirstFailure <= 3 {
			t.Errorf("%s first failure %d not above RAID6", s.Name, s.FirstFailure)
		}
	}
}

func TestTable2ShowsImprovementPipeline(t *testing.T) {
	cfg := tinyConfig()
	text, systems, err := Table2(cfg, prepare(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Unscreened") || !strings.Contains(text, "adjusted") {
		t.Errorf("table missing pipeline stages:\n%s", text)
	}
	// The pipeline must be monotone: unscreened <= screened <= adjusted
	// first failure (0 meaning "none found" sorts last).
	ff := func(s System) int {
		if s.FirstFailure == 0 {
			return 1 << 30
		}
		return s.FirstFailure
	}
	if ff(systems[0]) > ff(systems[1]) {
		t.Errorf("screening lowered first failure: %d -> %d", systems[0].FirstFailure, systems[1].FirstFailure)
	}
	if ff(systems[1]) > ff(systems[2]) {
		t.Errorf("adjustment lowered first failure: %d -> %d", systems[1].FirstFailure, systems[2].FirstFailure)
	}
}

func TestTable3(t *testing.T) {
	cfg := tinyConfig()
	text, systems, err := Table3(cfg, prepare(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Regular - Degree = 4", "Regular - Degree = 11", "doubled", "shifted", "(best)"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	if len(systems) != 5 {
		t.Errorf("got %d systems", len(systems))
	}
}

func TestTable4(t *testing.T) {
	cfg := tinyConfig()
	text, systems, err := Table4(cfg, prepare(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Cascaded - Degree = 6", "Cascaded - Degree = 3", "(best)"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	if len(systems) != 4 {
		t.Errorf("got %d systems", len(systems))
	}
}

func TestTable5PaperShape(t *testing.T) {
	cfg := tinyConfig()
	text, pfails := Table5(cfg, prepare(t), 0.01)
	if !strings.Contains(text, "Individual Disk") {
		t.Errorf("table:\n%s", text)
	}
	// Published analytic values.
	approx := func(got, want, tol float64) bool { d := got - want; return d < tol && d > -tol }
	if !approx(pfails["Striping"], 0.61895, 1e-3) {
		t.Errorf("striping P(fail) = %v", pfails["Striping"])
	}
	if !approx(pfails["RAID5 (8x12)"], 0.04834, 1e-3) {
		t.Errorf("raid5 P(fail) = %v", pfails["RAID5 (8x12)"])
	}
	if !approx(pfails["RAID6 (8x12)"], 0.00164, 1e-4) {
		t.Errorf("raid6 P(fail) = %v", pfails["RAID6 (8x12)"])
	}
	if !approx(pfails["Mirrored"], 0.00479, 1e-4) {
		t.Errorf("mirrored P(fail) = %v", pfails["Mirrored"])
	}
	// Tornado graphs must beat every baseline by orders of magnitude.
	for _, tg := range prepare(t) {
		if pfails[tg.Name] >= pfails["RAID6 (8x12)"]/10 {
			t.Errorf("%s P(fail) = %.3g, not well under RAID6 %.3g", tg.Name, pfails[tg.Name], pfails["RAID6 (8x12)"])
		}
	}
}

func TestTable6PaperShape(t *testing.T) {
	text, nodes := Table6(prepare(t))
	if !strings.Contains(text, "Overhead") {
		t.Errorf("table:\n%s", text)
	}
	// Paper: 61-62 nodes (overhead 1.27-1.29). Allow slack for sampling
	// and graph draws, but the 50% point must sit between the data count
	// and everything.
	for i, n := range nodes {
		if n < 48 || n > 80 {
			t.Errorf("graph %d: 50%% point = %d nodes, outside plausible range", i+1, n)
		}
	}
}

func TestTable7PaperShape(t *testing.T) {
	cfg := tinyConfig()
	tgs := prepare(t)
	for _, tg := range tgs {
		if len(tg.CriticalSets) == 0 {
			t.Skip("a prepared graph has no critical sets at the certification bound; Table 7 needs them")
		}
	}
	text, detected, err := Table7(cfg, tgs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Mirrored (4 copies)") {
		t.Errorf("table:\n%s", text)
	}
	if got := detected["Mirrored (4 copies)"]; got != 4 {
		t.Errorf("mirrored federation = %d, want 4", got)
	}
	same := detected["Tornado 1 + Tornado 1"]
	ff := tgs[0].FirstFailure
	if same != 2*ff {
		t.Errorf("same-graph federation = %d, want %d", same, 2*ff)
	}
	// Complementary pairs must not be worse than the same-graph pairing.
	for _, name := range []string{"Tornado 1 + Tornado 2", "Tornado 1 + Tornado 3", "Tornado 2 + Tornado 3"} {
		if d, ok := detected[name]; ok && d < same {
			t.Errorf("%s detected %d < same-graph %d", name, d, same)
		}
	}
}

func TestEq1Validation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trials = 20000
	text, maxAbs, err := Eq1Validation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Equation (1)") {
		t.Errorf("report:\n%s", text)
	}
	// 20k samples: deviations stay within ~4σ ≈ 0.015.
	if maxAbs > 0.02 {
		t.Errorf("max abs deviation %v too large", maxAbs)
	}
}

func TestCurvesCSV(t *testing.T) {
	_, systems := Table1(tinyConfig(), prepare(t))
	csv := CurvesCSV(systems)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 98 { // header + k=0..96
		t.Errorf("CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "offline,") {
		t.Errorf("header = %q", lines[0])
	}
	if CurvesCSV(nil) != "" {
		t.Error("empty input should give empty CSV")
	}
}

func TestBestTornado(t *testing.T) {
	tgs := prepare(t)
	best := BestTornado(tgs)
	for _, tg := range tgs {
		bf, tf := best.FirstFailure, tg.FirstFailure
		if bf == 0 {
			bf = 1 << 30
		}
		if tf == 0 {
			tf = 1 << 30
		}
		if tf > bf {
			t.Errorf("BestTornado missed %s (ff %d > %d)", tg.Name, tg.FirstFailure, best.FirstFailure)
		}
	}
}
