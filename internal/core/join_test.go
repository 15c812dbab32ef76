package core

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"stwig/internal/graph"
)

// newRelation prepares a standalone relation the way exchangeAndJoin
// prepares a machine's.
func newRelation(twig STwig, matches []STwigMatch, rng sampler) *relation {
	r := &relation{}
	r.reset(twig, matches)
	r.est = estimateCardinality(matches, rng)
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
	rng := rand.New(rand.NewSource(1))
	if got := estimateCardinality(nil, rng); got != 0 {
		t.Fatalf("empty relation estimate = %v", got)
	}
	small := []STwigMatch{
		{Root: 1, LeafSets: [][]graph.NodeID{{1, 2}}},
		{Root: 2, LeafSets: [][]graph.NodeID{{1, 2, 3}}},
	}
	if got := estimateCardinality(small, rng); got != 5 {
		t.Fatalf("exact estimate = %v, want 5", got)
	}
	// Sampled path: build 1000 matches each denoting 4 tuples; the scaled
	// estimate must be near 4000.
	big := make([]STwigMatch, 1000)
	for i := range big {
		big[i] = STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{{1, 2}, {3, 4}}}
	}
	got := estimateCardinality(big, rng)
	if got < 3500 || got > 4500 {
		t.Fatalf("sampled estimate = %v, want ≈4000", got)
	}
}

// TestLazyRandDrawsTheEagerSequence pins the per-machine generator of the
// join phase: created on its first draw, it must hand a sampled relation
// (more than 256 matches) exactly the estimate the eagerly seeded
// rand.New(rand.NewSource(seed)) gave it — estimates order the join, so any
// drift would change join orders — and a relation that is not sampled must
// not seed it at all.
func TestLazyRandDrawsTheEagerSequence(t *testing.T) {
	// Expanded counts vary with the index, so the estimate depends on
	// exactly which matches are drawn.
	matches := make([]STwigMatch, 1000)
	for i := range matches {
		matches[i] = STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{
			make([]graph.NodeID, 1+i%17), make([]graph.NodeID, 1+i%3)}}
	}
	twig := STwig{Root: 0, Leaves: []int{1, 2}}
	for _, seed := range []int64{0, 1, 7, 1 << 40} {
		eager := rand.New(rand.NewSource(seed))
		lazy := &lazyRand{seed: seed}
		if estimateCardinality(matches[:256], lazy); lazy.rng != nil {
			t.Fatalf("seed %d: a 256-match relation seeded the generator", seed)
		}
		// Two relations in a row: the second continues the sequence.
		for _, n := range []int{257, 1000} {
			want := newRelation(twig, matches[:n], eager).est
			if got := newRelation(twig, matches[:n], lazy).est; got != want {
				t.Fatalf("seed %d, %d matches: est = %v, eager generator gives %v", seed, n, got, want)
			}
		}
	}
}

func TestOrderRelationsSmallestFirstConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mk := func(root int, leaves []int, card int) *relation {
		matches := make([]STwigMatch, card)
		for i := range matches {
			matches[i] = STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{{graph.NodeID(100 + i)}}}
		}
		return newRelation(STwig{Root: root, Leaves: leaves}, matches, rng)
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
	rng := rand.New(rand.NewSource(1))
	rel := newRelation(
		STwig{Root: 1, Leaves: []int{0, 2}},
		[]STwigMatch{{Root: 9, LeafSets: [][]graph.NodeID{{5, 6}, {5, 6}}}},
		rng,
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
	rng := rand.New(rand.NewSource(1))
	r1 := newRelation(STwig{Root: 0, Leaves: []int{2}},
		[]STwigMatch{{Root: 10, LeafSets: [][]graph.NodeID{{30, 31}}}}, rng)
	r2 := newRelation(STwig{Root: 1, Leaves: []int{2}},
		[]STwigMatch{{Root: 20, LeafSets: [][]graph.NodeID{{31, 32}}}}, rng)
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
	rng := rand.New(rand.NewSource(1))
	r1 := newRelation(STwig{Root: 0, Leaves: []int{1}},
		[]STwigMatch{{Root: 10, LeafSets: [][]graph.NodeID{{20, 21}}}}, rng)
	r2 := newRelation(STwig{Root: 1, Leaves: []int{2}},
		[]STwigMatch{
			{Root: 20, LeafSets: [][]graph.NodeID{{30}}},
			{Root: 22, LeafSets: [][]graph.NodeID{{31}}}, // unreachable root
		}, rng)
	var got []Match
	j := &joiner{q: q, rels: []*relation{r1, r2}, blockSize: 4, emitBlock: collectInto(&got)}
	j.run()
	if len(got) != 1 || got[0].Assignment[2] != 30 {
		t.Fatalf("probe join wrong: %v", got)
	}
}

func TestJoinerBudgetStops(t *testing.T) {
	q := MustNewQuery([]string{"x", "y"}, [][2]int{{0, 1}})
	rng := rand.New(rand.NewSource(1))
	matches := make([]STwigMatch, 100)
	for i := range matches {
		matches[i] = STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{{graph.NodeID(1000 + i)}}}
	}
	rel := newRelation(STwig{Root: 0, Leaves: []int{1}}, matches, rng)
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
	rng := rand.New(rand.NewSource(1))
	rel := newRelation(STwig{Root: 0, Leaves: []int{1}}, nil, rng)
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
