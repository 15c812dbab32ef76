package experiments

import (
	"fmt"
	"sort"

	"stwig/internal/stats"
)

// Experiment names one runnable exhibit reproduction.
type Experiment struct {
	// Name is the CLI key, e.g. "table1", "fig9a".
	Name string
	// Paper identifies the exhibit in the paper.
	Paper string
	// Shape is the expected qualitative result.
	Shape string
	// Run executes the experiment.
	Run func(Config) (*stats.Table, error)
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1", "STwig index linear & tiny; signature indexes blow up with radius; no-index search orders of magnitude slower", RunTable1},
		{"table2", "Table 2", "load time ≈ linear in node count", RunTable2},
		{"fig8a", "Figure 8(a)", "DFS query cost rises to ~7 nodes then flattens/dips", RunFig8a},
		{"fig8b", "Figure 8(b)", "random query cost ≈ linear in node count", RunFig8b},
		{"fig8c", "Figure 8(c)", "cost flat in query edge count", RunFig8c},
		{"fig9a", "Figure 9(a)", "DFS speed-up grows sub-linearly with machines", RunFig9a},
		{"fig9b", "Figure 9(b)", "random-query speed-up smaller than DFS", RunFig9b},
		{"fig10a", "Figure 10(a)", "flat vs node count at fixed degree", RunFig10a},
		{"fig10b", "Figure 10(b)", "grows with node count at fixed density", RunFig10b},
		{"fig10c", "Figure 10(c)", "sub-linear growth with degree; random hit harder", RunFig10c},
		{"fig10d", "Figure 10(d)", "decreasing with label density", RunFig10d},
		{"ablations", "(§4.2, §4.3, §5.2, §5.3)", "each optimization strictly reduces time and/or bytes", RunAblations},
		{"throughput", "(§8 future work)", "throughput scales with available cores, then saturates (flat on a 1-core host)", RunThroughput},
	}
}

// Lookup returns the experiment with the given name.
func Lookup(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(All()))
	for _, e := range All() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
}
