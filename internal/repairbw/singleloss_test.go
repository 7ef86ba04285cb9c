package repairbw

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/graphml"
)

// TestSingleLossStatsPinned pins EXPERIMENTS.md's "Table 5 extended"
// Tornado rows: mean blocks read (and remote blocks read) per single loss
// with 12-device groups, on each shipped graph and the seed-2006 generated
// cascade.
func TestSingleLossStatsPinned(t *testing.T) {
	shipped := func(name string) func(*testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph {
			g, err := graphml.ReadFile("../../precompiled/" + name + ".graphml")
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	generated := func(t *testing.T) *graph.Graph {
		g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(2006, 0)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name          string
		graph         func(*testing.T) *graph.Graph
		reads, remote string
	}{
		{"tornado96-1", shipped("tornado96-1"), "5.12", "3.59"},
		{"tornado96-2", shipped("tornado96-2"), "5.17", "3.54"},
		{"tornado96-3", shipped("tornado96-3"), "5.18", "3.51"},
		{"generated-2006", generated, "5.05", "3.55"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := SingleLossStats(tc.graph(t), 12)
			reads, remote := fmt.Sprintf("%.2f", s.MeanRepairReads), fmt.Sprintf("%.2f", s.MeanRemoteReads)
			if reads != tc.reads || remote != tc.remote {
				t.Errorf("%s reads (%s remote) per loss, want %s (%s)", reads, remote, tc.reads, tc.remote)
			}
			if s.MaxRepairReads < int(s.MeanRepairReads) || s.DataMeanRemoteReads > s.DataMeanRepairReads {
				t.Errorf("implausible stats: %+v", s)
			}
		})
	}
}
