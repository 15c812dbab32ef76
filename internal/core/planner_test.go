package core

import (
	"testing"
)

func TestSignatureCanonicalUnderEdgeReordering(t *testing.T) {
	// The same pattern written with edges in different orders and
	// orientations must render one canonical text.
	a := MustNewQuery([]string{"a", "b", "c", "d"},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	b := MustNewQuery([]string{"a", "b", "c", "d"},
		[][2]int{{3, 2}, {1, 3}, {2, 0}, {1, 0}})
	if a.String() != b.String() {
		t.Fatalf("reordered edge literals changed the rendering:\n%q\n%q", a.String(), b.String())
	}
}

func TestSignatureDistinguishesQueries(t *testing.T) {
	base := MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	cases := map[string]*Query{
		"different label": MustNewQuery([]string{"a", "b", "d"}, [][2]int{{0, 1}, {1, 2}}),
		"different edges": MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {0, 2}}),
		"extra edge":      MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {0, 2}}),
	}
	for name, q := range cases {
		if q.String() == base.String() {
			t.Fatalf("%s: rendering collision: %q", name, base.String())
		}
	}
	// Label strings must not collide across vertex boundaries.
	x := MustNewQuery([]string{"x", "y,z"}, [][2]int{{0, 1}})
	y := MustNewQuery([]string{"x,y", "z"}, [][2]int{{0, 1}})
	if x.String() == y.String() {
		t.Fatalf("label boundary collision: %q", x.String())
	}
}

func TestPlannerDeterministic(t *testing.T) {
	g := figure1Graph()
	c := clusterFor(t, g, 3)
	p := NewPlanner(c, Options{Seed: 5})
	q := figure1Query()
	first, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := p.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if first.Decomposition.String() != again.Decomposition.String() {
			t.Fatalf("planner not deterministic: %v vs %v", first.Decomposition, again.Decomposition)
		}
		again.BuildTime = first.BuildTime
		if first.String() != again.String() {
			t.Fatalf("plan rendering drifted:\n%s\nvs\n%s", first, again)
		}
	}
}

func TestPlannerRecordsClusterEpoch(t *testing.T) {
	g := figure1Graph()
	c := clusterFor(t, g, 2)
	p := NewPlanner(c, Options{})
	q := figure1Query()
	before, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if before.Epoch != c.Epoch() {
		t.Fatalf("plan epoch %d != cluster epoch %d", before.Epoch, c.Epoch())
	}
	if _, err := c.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	after, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch == before.Epoch {
		t.Fatal("cluster update did not move the plan epoch")
	}
}

func TestPlannerValidatesQueries(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	p := NewPlanner(c, Options{})
	if _, err := p.Plan(MustNewQuery([]string{"a"}, nil)); err == nil {
		t.Fatal("edgeless query accepted")
	}
	if _, err := p.Plan(MustNewQuery([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {2, 3}})); err == nil {
		t.Fatal("disconnected query accepted")
	}
}

func TestPlannerUnresolvableQuery(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	p := NewPlanner(c, Options{})
	q := MustNewQuery([]string{"a", "nope"}, [][2]int{{0, 1}})
	plan, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Resolvable {
		t.Fatal("unresolvable query reported resolvable")
	}
	if plan.Query != q {
		t.Fatal("unresolvable plan does not carry its query")
	}
}

// TestPlanFollowsClusterUpdates: a plan is built from the label statistics
// of the moment, with no invalidation step in between. A label that appears
// turns an empty plan into one that matches, and a label whose count moves
// moves the next plan's f-values.
func TestPlanFollowsClusterUpdates(t *testing.T) {
	g := figure1Graph() // labels a a b c d
	c := clusterFor(t, g, 2)
	e := NewEngine(c, Options{})

	planted := MustNewQuery([]string{"planted", "planted"}, [][2]int{{0, 1}})
	res, err := e.Match(planted)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatal("matches before the label exists")
	}
	u, err := c.AddNode("planted")
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.AddNode("planted")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	res, err = e.Match(planted)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 { // the edge matches in both directions
		t.Fatalf("got %d matches after the label appeared, want 2", len(res.Matches))
	}

	ab := MustNewQuery([]string{"a", "b"}, [][2]int{{0, 1}})
	before, err := e.Explain(ab)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode("a"); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e.Explain(ab)
	if err != nil {
		t.Fatal(err)
	}
	if before.FValues[0] != 1.0/2 || after.FValues[0] != 1.0/4 {
		t.Fatalf("f(a) = %v, then %v after two more a vertices; want 1/2, then 1/4", before.FValues[0], after.FValues[0])
	}
	if before.FValues[1] != after.FValues[1] {
		t.Fatalf("f(b) moved from %v to %v, but no b vertex was added", before.FValues[1], after.FValues[1])
	}
	if after.Epoch != c.Epoch() || after.Epoch == before.Epoch {
		t.Fatalf("plans at epochs %d and %d, the cluster is at %d", before.Epoch, after.Epoch, c.Epoch())
	}
}
