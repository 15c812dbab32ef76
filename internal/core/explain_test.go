package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"stwig/internal/graph"
)

func TestExplainBasic(t *testing.T) {
	g := figure1Graph()
	c := clusterFor(t, g, 3)
	e := NewEngine(c, Options{})
	plan, err := e.Explain(figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Resolvable {
		t.Fatal("resolvable query reported unresolvable")
	}
	if len(plan.Decomposition.Twigs) == 0 {
		t.Fatal("no decomposition in plan")
	}
	if err := plan.Decomposition.CoversAllEdges(plan.Query); err != nil {
		t.Fatalf("plan decomposition invalid: %v", err)
	}
	if len(plan.RootCandidates) != len(plan.Decomposition.Twigs) {
		t.Fatal("root candidates length mismatch")
	}
	for t2, twig := range plan.Decomposition.Twigs {
		want := int64(len(g.NodesWithLabel(g.Labels().MustLookup(plan.Query.Label(twig.Root)))))
		if plan.RootCandidates[t2] != want {
			t.Fatalf("root candidates for step %d = %d, want %d", t2, plan.RootCandidates[t2], want)
		}
	}
	if plan.LoadSets.Machines() != 3 {
		t.Fatal("load sets not per machine")
	}
	if len(plan.FValues) != plan.Query.NumVertices() {
		t.Fatal("f-values length mismatch")
	}
	out := plan.String()
	for _, want := range []string{"decomposition", "cluster graph diameter", "exchange", "root candidates"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan rendering missing %q:\n%s", want, out)
		}
	}
	if len(plan.EstimatedSTwigWork()) != len(plan.RootCandidates) {
		t.Fatal("EstimatedSTwigWork length mismatch")
	}
}

func TestExplainMatchesExecution(t *testing.T) {
	// The plan's decomposition must be exactly what Match uses.
	g := figure1Graph()
	c := clusterFor(t, g, 3)
	e := NewEngine(c, Options{})
	q := figure1Query()
	plan, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Decomposition.String() != res.Stats.Decomposition.String() {
		t.Fatalf("plan %v != executed %v", plan.Decomposition, res.Stats.Decomposition)
	}
}

func TestExplainUnresolvable(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	plan, err := NewEngine(c, Options{}).Explain(
		MustNewQuery([]string{"a", "nope"}, [][2]int{{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Resolvable {
		t.Fatal("unresolvable query reported resolvable")
	}
	if !strings.Contains(plan.String(), "EMPTY") {
		t.Fatal("empty plan rendering missing EMPTY marker")
	}
}

func TestExplainRejectsBadQueries(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	e := NewEngine(c, Options{})
	if _, err := e.Explain(MustNewQuery([]string{"a"}, nil)); err == nil {
		t.Fatal("edgeless query accepted")
	}
	if _, err := e.Explain(MustNewQuery([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {2, 3}})); err == nil {
		t.Fatal("disconnected query accepted")
	}
}

// TestExplainAnalyzeRendersTheRunPlan: the plan EXPLAIN ANALYZE renders is
// the one its run executed — its STwigs are the run's exploration steps, in
// order, at the run's epoch — and when a cluster update reorders the plan
// between two analyses, rendering and run move together.
func TestExplainAnalyzeRendersTheRunPlan(t *testing.T) {
	// A path A-B-C-D whose label counts (1, 4, 8, 16) make f(A) the largest:
	// Algorithm 2 starts at A until A stops being rare.
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	var byLabel [4][]graph.NodeID
	for l, n := range []int{1, 4, 8, 16} {
		for i := 0; i < n; i++ {
			byLabel[l] = append(byLabel[l], b.AddNode(string(rune('A'+l))))
		}
	}
	for l := 0; l < 3; l++ {
		for _, u := range byLabel[l] {
			for _, v := range byLabel[l+1] {
				b.MustAddEdge(u, v)
			}
		}
	}
	c := clusterFor(t, b.Build(), 3)
	e := NewEngine(c, Options{})
	q := MustNewQuery([]string{"A", "B", "C", "D"}, [][2]int{{0, 1}, {1, 2}, {2, 3}})

	var rendered []string
	for round := 0; round < 2; round++ {
		ar, err := e.ExplainAnalyze(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if ar.Plan.Epoch != c.Epoch() {
			t.Fatalf("round %d: plan from epoch %d, the run's is %d", round, ar.Plan.Epoch, c.Epoch())
		}
		if got, want := ar.Stats.Decomposition.String(), ar.Plan.Decomposition.String(); got != want {
			t.Fatalf("round %d: the run executed %s, EXPLAIN ANALYZE renders %s", round, got, want)
		}
		steps := ar.Stats.Spans[1].Children // plan, explore, join
		if len(steps) != len(ar.Plan.Decomposition.Twigs) {
			t.Fatalf("round %d: %d exploration steps for %d STwigs", round, len(steps), len(ar.Plan.Decomposition.Twigs))
		}
		for i, twig := range ar.Plan.Decomposition.Twigs {
			if want := fmt.Sprintf("stwig %d (root %d)", i+1, twig.Root); steps[i].Name != want {
				t.Fatalf("round %d: step %d is %q, the plan says %q", round, i+1, steps[i].Name, want)
			}
		}
		rendered = append(rendered, ar.Plan.Decomposition.String())
		for i := 0; i < 40; i++ { // A becomes the commonest label
			if _, err := c.AddNode("A"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rendered[0] == rendered[1] {
		t.Fatalf("fixture: both analyses planned %s; the update was meant to reorder the STwigs", rendered[0])
	}
}
