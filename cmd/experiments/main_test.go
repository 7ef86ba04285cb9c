package main

import "testing"

// TestSelectExperiments pins what -exp accepts. main runs exactly what
// selectExperiments returns, so a name it resolves cannot lack a handler;
// what is left to check is that every documented name resolves to itself
// and that nothing a prefix match used to let through does.
func TestSelectExperiments(t *testing.T) {
	names := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "eq1", "overhead", "mttdl", "lec"}
	all := selectExperiments("all")
	if len(all) != len(names) {
		t.Fatalf("-exp all selects %d experiments, want %d", len(all), len(names))
	}
	for i, name := range names {
		got := selectExperiments(name)
		if len(got) != 1 || got[0].name != name || got[0].run == nil || all[i].name != name {
			t.Errorf("-exp %s selects %v, and -exp all runs %s in its place", name, got, all[i].name)
		}
	}
	for _, name := range []string{"", "nope", "table", "table0", "table9", "tablefoo", "Table1", "lec "} {
		if got := selectExperiments(name); got != nil {
			t.Errorf("-exp %q accepted: selects %d experiments", name, len(got))
		}
	}
}
