package core

import (
	"slices"
	"sync/atomic"
	"testing"

	"stwig/internal/graph"
)

// newRelation prepares a standalone relation the way exchangeAndJoin
// prepares a machine's.
func newRelation(twig STwig, matches []STwigMatch) *relation {
	r := &relation{}
	r.reset(twig, matches)
	r.card = r.size()
	return r
}

// collectInto returns an emitBlock that appends copies of every match to
// dst: a block is only valid during the callback.
func collectInto(dst *[]Match) func([]graph.NodeID, int) bool {
	return func(block []graph.NodeID, n int) bool {
		for at := 0; at < len(block); at += n {
			*dst = append(*dst, Match{Assignment: slices.Clone(block[at : at+n])})
		}
		return true
	}
}

func TestEstimateCardinality(t *testing.T) {
	size := func(matches []STwigMatch) float64 {
		return newRelation(STwig{Root: 0, Leaves: []int{1, 2}}, matches).size()
	}
	if card := size(nil); card != 0 {
		t.Fatalf("empty relation: cardinality %v", card)
	}
	small := []STwigMatch{
		{Root: 1, LeafSets: [][]graph.NodeID{{1, 2}}},
		{Root: 2, LeafSets: [][]graph.NodeID{{1, 2, 3}}},
	}
	if card := size(small); card != 5 {
		t.Fatalf("cardinality %v; want 5", card)
	}
	// 1000 matches each denoting 4 tuples: every match counts,
	// however many there are.
	big := make([]STwigMatch, 1000)
	for i := range big {
		big[i] = STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{{1, 2}, {3, 4}}}
	}
	if card := size(big); card != 4000 {
		t.Fatalf("cardinality %v; want 4000", card)
	}
}

// TestJoinOrderDrivesFromExactSmallest: the join starts from the relation
// that denotes the fewest tuples, counted over every match. The heavy-tailed
// relation has 999 single-tuple matches and one of 10^6 tuples; a uniform
// sample of a few hundred of its matches misses the heavy one more often
// than not and sizes the relation at about 1,000, below the 30,000 of the
// evenly spread one.
func TestJoinOrderDrivesFromExactSmallest(t *testing.T) {
	wide := make([]graph.NodeID, 1000)
	for i := range wide {
		wide[i] = graph.NodeID(10_000 + i)
	}
	tail := make([]STwigMatch, 1000)
	for i := range tail {
		tail[i] = STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{{graph.NodeID(2000 + i)}, {graph.NodeID(3000 + i)}}}
	}
	tail[500].LeafSets = [][]graph.NodeID{wide, wide}
	hundred := wide[:100]
	even := make([]STwigMatch, 300)
	for i := range even {
		even[i] = STwigMatch{Root: graph.NodeID(2000 + i), LeafSets: [][]graph.NodeID{hundred}}
	}
	heavy := newRelation(STwig{Root: 0, Leaves: []int{1, 2}}, tail)
	light := newRelation(STwig{Root: 1, Leaves: []int{3}}, even)
	if heavy.card != 1_000_999 || light.card != 30_000 {
		t.Fatalf("cardinalities %v and %v, want 1000999 and 30000", heavy.card, light.card)
	}
	if order := orderRelations([]*relation{heavy, light}, true); order[0] != light {
		t.Fatalf("the join drives from the %v-tuple relation, not the 30000-tuple one", order[0].card)
	}
}

func TestOrderRelationsSmallestFirstConnected(t *testing.T) {
	mk := func(root int, leaves []int, card int) *relation {
		matches := make([]STwigMatch, card)
		for i := range matches {
			matches[i] = STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{{graph.NodeID(100 + i)}}}
		}
		return newRelation(STwig{Root: root, Leaves: leaves}, matches)
	}
	// Relations over a path query 0-1-2-3: (0;1) big, (1;2) small, (2;3) medium.
	rels := []*relation{mk(0, []int{1}, 50), mk(1, []int{2}, 2), mk(2, []int{3}, 10)}
	ordered := orderRelations(rels, true)
	if ordered[0].twig.Root != 1 {
		t.Fatalf("first relation root = %d, want smallest (1)", ordered[0].twig.Root)
	}
	// Every subsequent relation must share a variable with those before it.
	seen := map[int]bool{}
	for i, r := range ordered {
		if i > 0 {
			connected := false
			for _, v := range r.twig.Vertices() {
				if seen[v] {
					connected = true
				}
			}
			if !connected {
				t.Fatalf("relation %d (%v) not connected to prefix", i, r.twig)
			}
		}
		for _, v := range r.twig.Vertices() {
			seen[v] = true
		}
	}
	// optimize=false keeps input order.
	kept := orderRelations(rels, false)
	for i := range rels {
		if kept[i] != rels[i] {
			t.Fatal("NoJoinOrderOpt reordered relations")
		}
	}
}

func TestJoinerEnforcesInjectivity(t *testing.T) {
	// Query 0-1-2 with labels x,y,x; relation matches would allow vertex 5
	// to play both 0 and 2 — the joiner must reject that tuple.
	q := MustNewQuery([]string{"x", "y", "x"}, [][2]int{{0, 1}, {1, 2}})
	rel := newRelation(
		STwig{Root: 1, Leaves: []int{0, 2}},
		[]STwigMatch{{Root: 9, LeafSets: [][]graph.NodeID{{5, 6}, {5, 6}}}},
	)
	var got []Match
	j := &joiner{q: q, rels: []*relation{rel}, blockSize: 4, emitBlock: collectInto(&got)}
	j.run()
	if len(got) != 2 { // (5,9,6) and (6,9,5)
		t.Fatalf("got %d matches, want 2: %v", len(got), got)
	}
	for _, m := range got {
		if m.Assignment[0] == m.Assignment[2] {
			t.Fatalf("injectivity violated: %v", m)
		}
	}
}

func TestJoinerSharedLeafVariableMustAgree(t *testing.T) {
	// Two relations sharing leaf variable 2: tuples must agree on it.
	q := MustNewQuery([]string{"x", "y", "z"}, [][2]int{{0, 2}, {1, 2}})
	r1 := newRelation(STwig{Root: 0, Leaves: []int{2}},
		[]STwigMatch{{Root: 10, LeafSets: [][]graph.NodeID{{30, 31}}}})
	r2 := newRelation(STwig{Root: 1, Leaves: []int{2}},
		[]STwigMatch{{Root: 20, LeafSets: [][]graph.NodeID{{31, 32}}}})
	var got []Match
	j := &joiner{q: q, rels: []*relation{r1, r2}, blockSize: 4, emitBlock: collectInto(&got)}
	j.run()
	if len(got) != 1 {
		t.Fatalf("got %d matches, want 1: %v", len(got), got)
	}
	if got[0].Assignment[2] != 31 {
		t.Fatalf("shared variable = %d, want 31", got[0].Assignment[2])
	}
}

func TestJoinerSharedRootProbesIndex(t *testing.T) {
	// Second relation's root is the first's leaf: the byRoot probe path.
	q := MustNewQuery([]string{"x", "y", "z"}, [][2]int{{0, 1}, {1, 2}})
	r1 := newRelation(STwig{Root: 0, Leaves: []int{1}},
		[]STwigMatch{{Root: 10, LeafSets: [][]graph.NodeID{{20, 21}}}})
	r2 := newRelation(STwig{Root: 1, Leaves: []int{2}},
		[]STwigMatch{
			{Root: 20, LeafSets: [][]graph.NodeID{{30}}},
			{Root: 22, LeafSets: [][]graph.NodeID{{31}}}, // unreachable root
		})
	var got []Match
	j := &joiner{q: q, rels: []*relation{r1, r2}, blockSize: 4, emitBlock: collectInto(&got)}
	j.run()
	if len(got) != 1 || got[0].Assignment[2] != 30 {
		t.Fatalf("probe join wrong: %v", got)
	}
}

func TestJoinerBudgetStops(t *testing.T) {
	q := MustNewQuery([]string{"x", "y"}, [][2]int{{0, 1}})
	matches := make([]STwigMatch, 100)
	for i := range matches {
		matches[i] = STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{{graph.NodeID(1000 + i)}}}
	}
	rel := newRelation(STwig{Root: 0, Leaves: []int{1}}, matches)
	var budget atomic.Int64
	budget.Store(7)
	var got []Match
	j := &joiner{q: q, rels: []*relation{rel}, budget: &budget, blockSize: 3, emitBlock: collectInto(&got)}
	j.run()
	if len(got) != 7 {
		t.Fatalf("emitted %d, want 7", len(got))
	}
	if !j.stopped {
		t.Fatal("joiner did not record stop")
	}
}

func TestJoinerEmptyRelationProducesNothing(t *testing.T) {
	q := MustNewQuery([]string{"x", "y"}, [][2]int{{0, 1}})
	rel := newRelation(STwig{Root: 0, Leaves: []int{1}}, nil)
	called := false
	j := &joiner{q: q, rels: []*relation{rel}, blockSize: 4, emitBlock: func([]graph.NodeID, int) bool { called = true; return true }}
	j.run()
	if called {
		t.Fatal("empty relation emitted matches")
	}
}

func TestMatchKeyAndSort(t *testing.T) {
	a := Match{Assignment: []graph.NodeID{3, 1}}
	b := Match{Assignment: []graph.NodeID{2, 9}}
	if a.Key() != "3,1" {
		t.Fatalf("Key = %q", a.Key())
	}
	if a.String() != "[3,1]" {
		t.Fatalf("String = %q", a.String())
	}
	ms := []Match{a, b}
	SortMatches(ms)
	if ms[0].Assignment[0] != 2 {
		t.Fatalf("sort wrong: %v", ms)
	}
	set := MatchSet(ms)
	if !set["3,1"] || !set["2,9"] || len(set) != 2 {
		t.Fatalf("MatchSet = %v", set)
	}
}

func TestVerifyMatchRejects(t *testing.T) {
	g := figure1Graph()
	c := clusterFor(t, g, 2)
	q := figure1Query()
	good := Match{Assignment: []graph.NodeID{0, 2, 3, 4}} // a1,b1,c1,d1
	if err := VerifyMatch(c, q, good); err != nil {
		t.Fatalf("valid match rejected: %v", err)
	}
	bad := []Match{
		{Assignment: []graph.NodeID{0, 2, 3}},       // wrong arity
		{Assignment: []graph.NodeID{0, 2, 2, 4}},    // not injective
		{Assignment: []graph.NodeID{2, 0, 3, 4}},    // wrong label
		{Assignment: []graph.NodeID{1, 2, 3, 4000}}, // nonexistent vertex
		{Assignment: []graph.NodeID{0, 2, 3, 1}},    // label of 1 is a, not d
	}
	for i, m := range bad {
		if err := VerifyMatch(c, q, m); err == nil {
			t.Errorf("bad match %d accepted: %v", i, m)
		}
	}
	// Edge violation: a valid-label assignment missing a data edge.
	q2 := MustNewQuery([]string{"a", "a"}, [][2]int{{0, 1}})
	if err := VerifyMatch(c, q2, Match{Assignment: []graph.NodeID{0, 1}}); err == nil {
		t.Error("match with missing data edge accepted")
	}
}
