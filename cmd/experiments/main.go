// Command experiments regenerates every table and figure of the paper's
// evaluation (§4–§5): Tables 1–7, the curve data behind Figures 3–6, and
// the Equation (1) simulator validation.
//
// Usage:
//
//	experiments                 # quick pass (minutes, preserves shape)
//	experiments -full           # paper-scale adjustment + k=5 certification
//	experiments -exp table5     # one experiment
//	experiments -csvdir ./fig   # also write figure curve CSVs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tornado/internal/exp"
)

// experiment is one value -exp accepts besides "all". run returns the text
// to print and the curves behind figure, the CSV they go to under -csvdir.
type experiment struct {
	name, figure string
	run          func(exp.Config, []*exp.TornadoGraph) (string, []exp.System, error)
}

var experiments = []experiment{
	{"table1", "figure3", func(cfg exp.Config, tg []*exp.TornadoGraph) (string, []exp.System, error) {
		text, systems := exp.Table1(cfg, tg)
		return text, systems, nil
	}},
	{"table2", "figure4", exp.Table2},
	{"table3", "figure5", exp.Table3},
	{"table4", "figure6", exp.Table4},
	{"table5", "", func(cfg exp.Config, tg []*exp.TornadoGraph) (string, []exp.System, error) {
		text, _ := exp.Table5(cfg, tg, 0.01)
		return text, nil, nil
	}},
	{"table6", "", func(_ exp.Config, tg []*exp.TornadoGraph) (string, []exp.System, error) {
		text, _ := exp.Table6(tg)
		return text, nil, nil
	}},
	{"table7", "", func(cfg exp.Config, tg []*exp.TornadoGraph) (string, []exp.System, error) {
		text, _, err := exp.Table7(cfg, tg)
		return text, nil, err
	}},
	{"eq1", "", func(cfg exp.Config, _ []*exp.TornadoGraph) (string, []exp.System, error) {
		text, maxAbs, err := exp.Eq1Validation(cfg)
		return fmt.Sprintf("%s\nmax |simulated - theory| across k: %.3g\n", text, maxAbs), nil, err
	}},
	{"overhead", "", func(cfg exp.Config, tg []*exp.TornadoGraph) (string, []exp.System, error) {
		text, _, err := exp.TableOverhead(cfg, tg)
		return text, nil, err
	}},
	{"mttdl", "", func(cfg exp.Config, tg []*exp.TornadoGraph) (string, []exp.System, error) {
		text, _, err := exp.TableMTTDL(cfg, tg, 0.01)
		return text, nil, err
	}},
	{"lec", "", exp.TableLEC},
}

// selectExperiments resolves -exp: every experiment for "all", the named one
// otherwise, none for a name that is neither. main calls it before preparing
// the graphs, which takes minutes with -full.
func selectExperiments(which string) []experiment {
	if which == "all" {
		return experiments
	}
	for i, e := range experiments {
		if e.name == which {
			return experiments[i : i+1]
		}
	}
	return nil
}

// validNames lists what -exp accepts, for the help text and the error.
func validNames() string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		full   = flag.Bool("full", false, "paper-scale configuration (clear k=4, certify k=5, heavy sampling)")
		which  = flag.String("exp", "all", "experiment: "+validNames())
		trials = flag.Int64("trials", 0, "override Monte Carlo trials per profile point")
		csvdir = flag.String("csvdir", "", "write figure curve CSVs into this directory")
	)
	flag.Parse()
	selected := selectExperiments(*which)
	if selected == nil {
		log.Fatalf("unknown experiment %q (valid: %s)", *which, validNames())
	}

	cfg := exp.Quick()
	if *full {
		cfg = exp.Full()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}

	start := time.Now()
	log.Printf("preparing %d tornado graphs (adjust to k=%d, certify to k=%d, %d trials/point)",
		len(cfg.Seeds), cfg.AdjustK, cfg.CertifyK, cfg.Trials)
	var tornadoes []*exp.TornadoGraph
	for i := range cfg.Seeds {
		tg, err := exp.PrepareTornado(cfg, i)
		if err != nil {
			log.Fatal(err)
		}
		ff := "none found"
		if tg.FirstFailure > 0 {
			at := tg.Profile.Fail[tg.FirstFailure]
			ff = fmt.Sprintf("%d (%d/%d cases)", tg.FirstFailure, at.Hits, at.Trials)
		}
		log.Printf("%s ready: first failure %s", tg.Name, ff)
		tornadoes = append(tornadoes, tg)
	}

	for _, e := range selected {
		text, systems, err := e.run(cfg, tornadoes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(text)
		if e.figure == "" || *csvdir == "" {
			continue
		}
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*csvdir, e.figure+".csv")
		if err := os.WriteFile(path, []byte(exp.CurvesCSV(systems)), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
	log.Printf("done in %v", time.Since(start).Round(time.Second))
}
