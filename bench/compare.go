package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is the outcome of comparing one metric of one workload between a
// base and a new result.
type verdict string

const (
	improved   verdict = "improved"
	regressed  verdict = "regressed"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved" // quartile spread wider than the bound
)

// judge compares medians against the metric's bound. worse is the relative
// change in the direction the metric counts as worse. A metric whose spread
// between quartiles exceeds its bound on either side cannot be told from
// noise and is unresolved, never unchanged. A bound of 0 marks an exact
// count: any difference is a verdict.
func judge(m metricDef, base, cur Summary) verdict {
	if base.Median == 0 {
		switch {
		case cur.Median == 0:
			return unchanged
		case m.Better == "lower":
			return regressed
		}
		return improved
	}
	worse := (cur.Median - base.Median) / math.Abs(base.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case m.Bound > 0 && math.Max(base.spread(), cur.spread()) > m.Bound:
		return unresolved
	case worse > m.Bound:
		return regressed
	case worse < -m.Bound:
		return improved
	}
	return unchanged
}

// compareResults prints, per workload and end-to-end metric, both medians and
// quartiles, the ratio with its base, and the verdict. It returns how many
// metrics regressed; a rise in fail_share always counts.
func compareResults(w io.Writer, base, cur *Result) int {
	fmt.Fprintf(w, "base %s (seed %d)   new %s (seed %d)\n", base.Stamp.GitCommit, base.Stamp.Seed, cur.Stamp.GitCommit, cur.Stamp.Seed)
	regressions := 0
	for _, bw := range base.Workloads {
		cw := cur.workload(bw.Name)
		if cw == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-28s %-6s %34s %34s %18s %6s %6s  %s\n", bw.Name, "metric", "unit",
			"base median [q1, q3]", "new median [q1, q3]", "new/base", "spread", "bound", "verdict")
		for _, m := range endToEnd {
			b, okB := bw.Metrics[m.Name]
			c, okC := cw.Metrics[m.Name]
			if !okB || !okC {
				continue
			}
			v := judge(m, b, c)
			if v == regressed {
				regressions++
			}
			ratio := "-"
			if b.Median != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", c.Median/b.Median, b.Median)
			}
			fmt.Fprintf(w, "  %-28s %-6s %34s %34s %18s %5.1f%% %5.1f%%  %s\n", m.Name, m.Unit,
				quartiles(b), quartiles(c), ratio, 100*math.Max(b.spread(), c.spread()), 100*m.Bound, v)
		}
	}
	return regressions
}

func quartiles(s Summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}

func compareFiles(basePath, curPath string) error {
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	cur, err := readResult(curPath)
	if err != nil {
		return err
	}
	if n := compareResults(os.Stdout, base, cur); n > 0 {
		return fmt.Errorf("%d metrics regressed", n)
	}
	return nil
}

// calibrate runs the suite twice on the same tree and compares the two: what
// it prints as spread and new/base is the benchmark's own noise, to be read
// beside each bound. A regression between two runs of the same code means a
// bound is tighter than the machine allows.
func calibrate(o options) error {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.Name)
	}
	var runs [2]*Result
	for i := range runs {
		fmt.Fprintf(os.Stderr, "calibration run %d of 2\n", i+1)
		r, err := runSuite(o, names)
		if err != nil {
			return err
		}
		for _, w := range r.Workloads {
			if !w.Correct {
				return fmt.Errorf("%s: incorrect run", w.Name)
			}
		}
		runs[i] = r
	}
	if n := compareResults(os.Stdout, runs[0], runs[1]); n > 0 {
		return errors.New("two runs of the same tree disagree beyond a bound")
	}
	return nil
}
