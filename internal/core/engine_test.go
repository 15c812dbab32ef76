package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// bruteForce is an independent reference matcher: plain backtracking over
// query vertices, no decomposition, no distribution. It is deliberately
// written with none of the engine's machinery so that agreement between the
// two is meaningful.
func bruteForce(g *graph.Graph, q *Query) []Match {
	n := q.NumVertices()
	assign := make([]graph.NodeID, n)
	for i := range assign {
		assign[i] = graph.InvalidNode
	}
	used := make(map[graph.NodeID]bool)
	var out []Match

	// Order vertices BFS-style so each (after the first) has an assigned
	// neighbor; purely a speed concern.
	order := make([]int, 0, n)
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range q.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}

	var rec func(k int)
	rec = func(k int) {
		if k == n {
			m := Match{Assignment: append([]graph.NodeID(nil), assign...)}
			out = append(out, m)
			return
		}
		qv := order[k]
		want, ok := g.Labels().Lookup(q.Label(qv))
		if !ok {
			return
		}
		for v := int64(0); v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			if g.Label(id) != want || used[id] {
				continue
			}
			good := true
			for _, qu := range q.Neighbors(qv) {
				if assign[qu] != graph.InvalidNode && !g.HasEdge(id, assign[qu]) {
					good = false
					break
				}
			}
			if !good {
				continue
			}
			assign[qv] = id
			used[id] = true
			rec(k + 1)
			assign[qv] = graph.InvalidNode
			delete(used, id)
		}
	}
	rec(0)
	return out
}

func clusterFor(t testing.TB, g *graph.Graph, machines int) *memcloud.Cluster {
	t.Helper()
	c := memcloud.MustNewCluster(memcloud.Config{Machines: machines})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	return c
}

// figure1Graph is the paper's Figure 1(a) data graph.
func figure1Graph() *graph.Graph {
	// 0:a1 1:a2 2:b1 3:c1 4:d1
	return graph.MustFromEdges(
		[]string{"a", "a", "b", "c", "d"},
		[][2]int64{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}},
		graph.Undirected(),
	)
}

// figure1Query is Figure 1(b): d-a, a-b, a-c, b-c ... the figure shows the
// square d,a,b,c with edges d-a, a-b, a-c(? ). The paper states results are
// (a1,b1,c1,d1) and (a2,b1,c1,d1), which the brute-force check pins down.
func figure1Query() *Query {
	// 0:a 1:b 2:c 3:d with edges a-b, a-c, b-c, b-d, c-d? The reported
	// results require a adjacent to b,c and d adjacent to b,c.
	return MustNewQuery([]string{"a", "b", "c", "d"},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

func TestMatchPaperFigure1(t *testing.T) {
	g := figure1Graph()
	q := figure1Query()
	want := bruteForce(g, q)
	if len(want) != 2 {
		t.Fatalf("brute force finds %d matches, paper says 2: %v", len(want), want)
	}
	for _, machines := range []int{1, 2, 3, 4} {
		c := clusterFor(t, g, machines)
		res, err := NewEngine(c, Options{}).Match(q)
		if err != nil {
			t.Fatalf("machines=%d: %v", machines, err)
		}
		assertSameMatches(t, want, res.Matches, fmt.Sprintf("machines=%d", machines))
		for _, m := range res.Matches {
			if err := VerifyMatch(c, q, m); err != nil {
				t.Fatalf("machines=%d: invalid match %v: %v", machines, m, err)
			}
		}
	}
}

func assertSameMatches(t *testing.T, want, got []Match, ctx string) {
	t.Helper()
	ws, gs := MatchSet(want), MatchSet(got)
	if len(got) != len(gs) {
		t.Fatalf("%s: engine emitted %d matches with %d distinct — duplicates despite disjointness guarantee", ctx, len(got), len(gs))
	}
	if len(ws) != len(gs) {
		t.Fatalf("%s: got %d matches, want %d", ctx, len(gs), len(ws))
	}
	for k := range ws {
		if !gs[k] {
			t.Fatalf("%s: missing match %s", ctx, k)
		}
	}
}

func TestMatchTriangleQuery(t *testing.T) {
	g := figure1Graph()
	q := MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	want := bruteForce(g, q) // triangles a-b-c: (a1,b1,c1), (a2,b1,c1)
	c := clusterFor(t, g, 3)
	res, err := NewEngine(c, Options{}).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, want, res.Matches, "triangle")
}

func TestMatchMissingLabelEmpty(t *testing.T) {
	g := figure1Graph()
	q := MustNewQuery([]string{"a", "zzz"}, [][2]int{{0, 1}})
	c := clusterFor(t, g, 2)
	res, err := NewEngine(c, Options{}).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("matches for unknown label: %v", res.Matches)
	}
}

func TestMatchRejectsBadQueries(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	e := NewEngine(c, Options{})
	disc := MustNewQuery([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {2, 3}})
	if _, err := e.Match(disc); err == nil {
		t.Fatal("disconnected query accepted")
	}
	noEdge := MustNewQuery([]string{"a"}, nil)
	if _, err := e.Match(noEdge); err == nil {
		t.Fatal("edgeless query accepted")
	}
}

func TestMatchBudgetTruncates(t *testing.T) {
	// A label-poor bipartite-ish graph with combinatorially many matches.
	b := graph.NewBuilder(graph.Undirected())
	for i := 0; i < 10; i++ {
		b.AddNode("a")
	}
	for i := 0; i < 10; i++ {
		b.AddNode("b")
	}
	for i := 0; i < 10; i++ {
		for j := 10; j < 20; j++ {
			b.MustAddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g := b.Build()
	q := MustNewQuery([]string{"a", "b", "a"}, [][2]int{{0, 1}, {1, 2}})
	c := clusterFor(t, g, 2)

	full, err := NewEngine(c, Options{}).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) != 10*10*9 {
		t.Fatalf("full enumeration = %d, want 900", len(full.Matches))
	}
	if full.Stats.Truncated {
		t.Fatal("unlimited run reported truncation")
	}

	lim, err := NewEngine(c, Options{MatchBudget: 64}).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Matches) > 64 {
		t.Fatalf("budget 64 produced %d matches", len(lim.Matches))
	}
	if !lim.Stats.Truncated {
		t.Fatal("budgeted run did not report truncation")
	}
	for _, m := range lim.Matches {
		if err := VerifyMatch(c, q, m); err != nil {
			t.Fatalf("invalid truncated match: %v", err)
		}
	}
}

func TestMatchDisjointAcrossMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomDataGraph(rng, 60, 150, []string{"a", "b", "c"})
	q := randomConnectedQuery(rng, 4, 2, []string{"a", "b", "c"})
	c := clusterFor(t, g, 5)
	res, err := NewEngine(c, Options{}).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range res.Stats.PerMachineMatches {
		sum += n
	}
	if sum != len(res.Matches) {
		t.Fatalf("per-machine counts sum %d != %d", sum, len(res.Matches))
	}
	if set := MatchSet(res.Matches); len(set) != len(res.Matches) {
		t.Fatalf("duplicates across machines: %d matches, %d distinct", len(res.Matches), len(set))
	}
}

func randomDataGraph(rng *rand.Rand, n, m int, labels []string) *graph.Graph {
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	for i := 0; i < n; i++ {
		b.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			b.MustAddEdge(u, v)
		}
	}
	return b.Build()
}

// TestPropertyEngineMatchesBruteForce is the load-bearing correctness test:
// across random graphs, random connected queries, and machine counts, the
// distributed STwig engine must produce exactly the brute-force result set.
func TestPropertyEngineMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"a", "b", "c"}
		g := randomDataGraph(rng, 12+rng.Intn(20), 30+rng.Intn(40), labels)
		q := randomConnectedQuery(rng, 2+rng.Intn(4), rng.Intn(3), labels)
		want := MatchSet(bruteForce(g, q))
		machines := 1 + rng.Intn(4)
		c := memcloud.MustNewCluster(memcloud.Config{Machines: machines})
		if err := c.LoadGraph(g); err != nil {
			return false
		}
		res, err := NewEngine(c, Options{Seed: seed}).Match(q)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got := MatchSet(res.Matches)
		if len(got) != len(res.Matches) {
			t.Logf("seed %d: duplicates", seed)
			return false
		}
		if len(got) != len(want) {
			t.Logf("seed %d: got %d want %d (machines=%d)", seed, len(got), len(want), machines)
			return false
		}
		for k := range want {
			if !got[k] {
				t.Logf("seed %d: missing %s", seed, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPlantedMatchAlwaysFound embeds the query itself into a random
// background graph and checks recall.
func TestPropertyPlantedMatchAlwaysFound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"p", "q", "r", "s"}
		q := randomConnectedQuery(rng, 3+rng.Intn(3), rng.Intn(3), labels)

		b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
		// Plant the query vertices first.
		planted := make([]graph.NodeID, q.NumVertices())
		for v := 0; v < q.NumVertices(); v++ {
			planted[v] = b.AddNode(q.Label(v))
		}
		for _, e := range q.Edges() {
			b.MustAddEdge(planted[e[0]], planted[e[1]])
		}
		// Background noise.
		n := 20 + rng.Intn(20)
		for i := 0; i < n; i++ {
			b.AddNode(labels[rng.Intn(len(labels))])
		}
		total := b.NumNodes()
		for i := 0; i < 2*n; i++ {
			u, v := graph.NodeID(rng.Int63n(total)), graph.NodeID(rng.Int63n(total))
			if u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Build()

		c := memcloud.MustNewCluster(memcloud.Config{Machines: 1 + int(uint64(seed)%4)})
		if err := c.LoadGraph(g); err != nil {
			return false
		}
		res, err := NewEngine(c, Options{}).Match(q)
		if err != nil {
			return false
		}
		key := Match{Assignment: planted}.Key()
		for _, m := range res.Matches {
			if m.Key() == key {
				return true
			}
		}
		t.Logf("seed %d: planted match not found among %d results", seed, len(res.Matches))
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAblationsPreserveResults: every ablation switch changes only
// cost, never the result set.
func TestPropertyAblationsPreserveResults(t *testing.T) {
	variants := []Options{
		{NoBindings: true},
		{NoLoadSets: true},
		{RandomDecomposition: true},
		{NoJoinOrderOpt: true},
		{NoSemijoin: true},
		{NoBindings: true, NoLoadSets: true, RandomDecomposition: true, NoJoinOrderOpt: true, NoSemijoin: true},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"a", "b", "c"}
		g := randomDataGraph(rng, 15+rng.Intn(15), 40+rng.Intn(30), labels)
		q := randomConnectedQuery(rng, 2+rng.Intn(4), rng.Intn(3), labels)
		machines := 1 + rng.Intn(4)
		c := memcloud.MustNewCluster(memcloud.Config{Machines: machines})
		if err := c.LoadGraph(g); err != nil {
			return false
		}
		base, err := NewEngine(c, Options{Seed: seed}).Match(q)
		if err != nil {
			return false
		}
		want := MatchSet(base.Matches)
		for _, opts := range variants {
			opts.Seed = seed
			res, err := NewEngine(c, opts).Match(q)
			if err != nil {
				return false
			}
			got := MatchSet(res.Matches)
			if len(got) != len(res.Matches) || len(got) != len(want) {
				t.Logf("seed %d opts %+v: got %d (distinct %d) want %d", seed, opts, len(res.Matches), len(got), len(want))
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSetsReduceTraffic(t *testing.T) {
	// §5.3's point: load sets should never increase communication relative
	// to all-to-all exchange, and the result set is identical.
	rng := rand.New(rand.NewSource(4))
	g := randomDataGraph(rng, 200, 500, []string{"a", "b", "c", "d", "e"})
	q := randomConnectedQuery(rng, 5, 2, []string{"a", "b", "c"})

	run := func(opts Options) (int, memcloud.NetStats) {
		c := memcloud.MustNewCluster(memcloud.Config{Machines: 6})
		if err := c.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(c, opts).Match(q)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Matches), res.Stats.Net
	}
	nWith, netWith := run(Options{})
	nWithout, netWithout := run(Options{NoLoadSets: true})
	if nWith != nWithout {
		t.Fatalf("load sets changed result count: %d vs %d", nWith, nWithout)
	}
	if netWith.Bytes > netWithout.Bytes {
		t.Fatalf("load sets increased traffic: %d > %d bytes", netWith.Bytes, netWithout.Bytes)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := figure1Graph()
	c := clusterFor(t, g, 2)
	res, err := NewEngine(c, Options{}).Match(figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if len(s.Decomposition.Twigs) == 0 {
		t.Fatal("stats missing decomposition")
	}
	if len(s.STwigMatchCounts) != len(s.Decomposition.Twigs) {
		t.Fatal("stwig counts wrong length")
	}
	if s.ExploreTime <= 0 || s.JoinTime < 0 {
		t.Fatalf("phase timings: explore=%v join=%v", s.ExploreTime, s.JoinTime)
	}
	if len(s.PerMachineMatches) != 2 {
		t.Fatal("per machine matches wrong length")
	}
}
