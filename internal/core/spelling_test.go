package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"stwig/internal/core"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
	"stwig/internal/rmat"
)

// TestReorderedPatternSpellingsExplainIdentically: planning is a function of
// the pattern and the label statistics, not of how the pattern was written.
// Edge literals reordered and reoriented, the DSL and the v/e text all
// render one byte-identical EXPLAIN text (build time aside).
func TestReorderedPatternSpellingsExplainIdentically(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 9, AvgDegree: 6, NumLabels: 4, Seed: 5})
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 4})
	if err := cluster.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(cluster, core.Options{})
	explain := func(q *core.Query) string {
		t.Helper()
		plan, err := eng.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		plan.BuildTime = 0
		return plan.String()
	}

	labels := []string{rmat.LabelName(0), rmat.LabelName(1), rmat.LabelName(2), rmat.LabelName(3)}
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 50; round++ {
		q := randomPattern(rng, labels)
		edges := q.Edges()
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i := range edges {
			if rng.Intn(2) == 0 {
				edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
			}
		}
		var dsl, ve []string
		for v := 0; v < q.NumVertices(); v++ {
			dsl = append(dsl, fmt.Sprintf("(n%d:%s)", v, q.Label(v)))
			ve = append(ve, fmt.Sprintf("v %d %s", v, q.Label(v)))
		}
		for _, e := range edges {
			dsl = append(dsl, fmt.Sprintf("(n%d)-(n%d)", e[0], e[1]))
			ve = append(ve, fmt.Sprintf("e %d %d", e[0], e[1]))
		}
		fromText, err := core.ParseQuery(strings.NewReader(strings.Join(ve, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		spellings := map[string]*core.Query{
			"reordered literals": core.MustNewQuery(q.Labels(), edges),
			"DSL":                pattern.MustParse(strings.Join(dsl, ", ")),
			"v/e text":           fromText,
		}
		want := explain(q)
		for name, sq := range spellings {
			if sq.String() != q.String() {
				t.Fatalf("round %d, %s: parsed to\n%s, want\n%s", round, name, sq, q)
			}
			if got := explain(sq); got != want {
				t.Fatalf("round %d, %s: EXPLAIN\n%s\nthe edge literals in order explain\n%s", round, name, got, want)
			}
		}
	}
}
