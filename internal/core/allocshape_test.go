package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// Allocation shape of a query, pinned as plain assertions: what one run
// allocates must depend on the work it does — candidates inspected, matches
// produced — and not on machines × numNodes. Before the proxy built one
// pooled binding set per covered query vertex, every machine materialized
// its own numNodes-bit set per vertex per step, so bytes per query grew with
// the machine count and with the size of a graph the query never touched.

// paddedGraph returns base with `pad` extra isolated vertices under a label
// no query uses: the same query does the same work on it, over a vertex-ID
// space that many IDs wider.
func paddedGraph(base *graph.Graph, pad int64) *graph.Graph {
	b := graph.NewBuilder(graph.Undirected())
	for v := int64(0); v < base.NumNodes(); v++ {
		b.AddNode(base.LabelString(graph.NodeID(v)))
	}
	for v := int64(0); v < base.NumNodes(); v++ {
		for _, u := range base.Neighbors(graph.NodeID(v)) {
			if graph.NodeID(v) < u {
				b.MustAddEdge(graph.NodeID(v), u)
			}
		}
	}
	for i := int64(0); i < pad; i++ {
		b.AddNode("pad")
	}
	return b.Build()
}

// bytesPerQuery measures the steady-state heap bytes one run of q
// allocates.
func bytesPerQuery(t *testing.T, eng *Engine, q *Query) uint64 {
	t.Helper()
	bytes, _ := costPerQuery(t, eng, q)
	return bytes
}

// costPerQuery measures the steady-state heap bytes and allocations of one
// run of q: the scratch pool is warm, and the collector is held off so it
// cannot empty the pool between runs.
func costPerQuery(t *testing.T, eng *Engine, q *Query) (bytes, allocs uint64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	discard := func(ms []Match) (int, bool) { return len(ms), true }
	run := func() {
		if _, err := eng.MatchStreamBlocks(context.Background(), q, discard); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
}

func TestAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random, so no pool stays warm")
	}
	base := rmat.MustGenerate(rmat.Params{Scale: 12, AvgDegree: 8, NumLabels: 24, Seed: 3})
	const pad = 1 << 18
	padded := paddedGraph(base, pad)
	setBytes := uint64(8 * bitsetWords(padded.NumNodes())) // 32.5 KiB; 0.5 KiB over base
	l := rmat.LabelName
	queries := []struct {
		name string
		q    *Query
	}{
		// One STwig: nothing is exchanged, so the algorithm itself
		// replicates nothing per machine.
		{"star", MustNewQuery([]string{l(0), l(1), l(2), l(3)}, [][2]int{{0, 1}, {0, 2}, {0, 3}})},
		// Several STwigs covering vertices twice: binding sets are replaced
		// by later steps, and the exchange ships matches between machines.
		{"cyclic", MustNewQuery([]string{l(0), l(1), l(2), l(3)}, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}})},
	}
	for _, tc := range queries {
		perMachines := map[int]uint64{}
		for _, machines := range []int{2, 8} {
			small := bytesPerQuery(t, NewEngine(clusterFor(t, base, machines), Options{}), tc.q)
			big := bytesPerQuery(t, NewEngine(clusterFor(t, padded, machines), Options{}), tc.q)
			t.Logf("%s, %d machines: %d B/query, %d B/query with %d more vertices", tc.name, machines, small, big, pad)
			// The same work over a wider ID space: one numNodes-sized
			// object per query would show as setBytes.
			if big > small+setBytes/4 {
				t.Errorf("%s, %d machines: %d B/query over %d vertices, %d B/query over %d: allocation grows with numNodes",
					tc.name, machines, small, base.NumNodes(), big, padded.NumNodes())
			}
			perMachines[machines] = big
		}
		if tc.name == "star" && perMachines[8]*2 > perMachines[2]*3 {
			t.Errorf("%s: %d B/query on 8 machines, %d on 2: more than 1.5×", tc.name, perMachines[8], perMachines[2])
		}
	}
}

// pathFixture is two path queries of one shape over one graph, with 460 and
// 4,924 matches.
func pathFixture() (g *graph.Graph, small, big *Query) {
	g = rmat.MustGenerate(rmat.Params{Scale: 12, AvgDegree: 8, NumLabels: 16, Seed: 3})
	l := rmat.LabelName
	path := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	return g, MustNewQuery([]string{l(1), l(4), l(5), l(6)}, path), MustNewQuery([]string{l(2), l(0), l(1), l(7)}, path)
}

// TestJoinAllocsDoNotGrowWithMatches: what a warm run allocates does not
// follow its result size: when every emitted assignment was its own
// allocation the two fixture queries differed by some 4,500 allocations per
// run.
func TestJoinAllocsDoNotGrowWithMatches(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random, so no pool stays warm")
	}
	g, small, big := pathFixture()
	eng := NewEngine(clusterFor(t, g, 2), Options{})
	count := func(q *Query) (n int) {
		if _, err := eng.MatchStreamBlocks(context.Background(), q, func(ms []Match) (int, bool) {
			n += len(ms)
			return len(ms), true
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	nSmall, nBig := count(small), count(big)
	if nSmall < 300 || nSmall > 700 || nBig < 4000 {
		t.Fatalf("fixture queries have %d and %d matches, want ~500 and ~5,000", nSmall, nBig)
	}
	_, aSmall := costPerQuery(t, eng, small)
	_, aBig := costPerQuery(t, eng, big)
	t.Logf("%d matches: %d allocs/run; %d matches: %d allocs/run", nSmall, aSmall, nBig, aBig)
	if aBig > aSmall+64 {
		t.Errorf("%d allocations for %d matches, %d for %d: allocation grows with the result", aBig, nBig, aSmall, nSmall)
	}
}

// untracedRunAllocs is what one warm run of pathFixture's small query
// allocates on two machines with no trace ID. It changes only with the code
// on the query path (or, rarely, with the Go release): a change that moves
// it says why and updates it. 80, down from 82: the join no longer builds a
// random generator per machine to sample relation sizes with (it escaped to
// the heap), since relations are sized exactly. 82 was down from 92: each of
// the run's three phases (two STwig steps and the join) starts its workers
// from one closure instead of a closure and a go wrapper per machine, and the
// per-machine sort of the relations no longer builds a reflect swapper and a
// closure (sort.SliceStable → slices.SortStableFunc).
const untracedRunAllocs = 80

// tracedRunAllocs is the same run with a trace ID: what stwigd executes,
// since it stamps every request with one. The 13 allocations over
// untracedRunAllocs are the span tree: the step names, the per-machine span
// slots and child lists, and the tree itself. 93, down from 99: with the
// pre-join reduction pass deleted, a machine span has no third child whose
// "(N rounds)" name was formatted per run, and its exchange/blockjoin child
// list is one two-element literal instead of a one-element literal grown
// twice by append — four allocations per machine become one. 99 was
// down from 101 with the untraced run's per-machine generator; 101 was down
// from 113 with the untraced run's 10 and the two machine span names, which
// come from a table.
const tracedRunAllocs = 93

// planAllocs is what Planner.Plan allocates for pathFixture's small query
// on eight machines: the plan and four of its slices (labels, label counts,
// f-values, root candidates) 5, the connectivity check 1, the pattern's hop
// distances 2, the cluster graph's adjacency and distances 2, the load-set
// masks 1, and the decomposition 4 (two of scratch, its STwigs, one array
// of all their leaves). It was 126 when the cluster graph ran a BFS per
// machine into fresh slices, load sets were [][][]int and the decomposition
// kept a map per query vertex.
const planAllocs = 15

// TestPlannerAllocsPinned pins the planner's cost exactly: it runs once per
// query, so an allocation added to it is one added to every query.
func TestPlannerAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g, small, _ := pathFixture()
	p := NewPlanner(clusterFor(t, g, 8), Options{})
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := p.Plan(small); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != planAllocs {
		t.Errorf("Planner.Plan allocates %v times, pinned at %d", allocs, planAllocs)
	}
}

// TestUntracedRunAllocsPinned: span recording costs a run without a trace ID
// nothing. Both counts are pinned exactly, so one allocation added to the
// hot path — by the recording branches or anything else — fails here.
func TestUntracedRunAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random, so no pool stays warm")
	}
	g, small, _ := pathFixture()
	c := clusterFor(t, g, 2)
	_, untraced := costPerQuery(t, NewEngine(c, Options{}), small)
	_, traced := costPerQuery(t, NewEngine(c, Options{TraceID: "pin"}), small)
	if untraced != untracedRunAllocs {
		t.Errorf("a warm untraced run allocates %d times, pinned at %d", untraced, untracedRunAllocs)
	}
	if traced != tracedRunAllocs {
		t.Errorf("a warm traced run allocates %d times, pinned at %d", traced, tracedRunAllocs)
	}
}

// TestJoinerEmitDoesNotAllocate: a joiner in its steady state — block
// grown, indexes built — runs its whole driver relation, probes, binds,
// buffers and flushes without a single allocation.
func TestJoinerEmitDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := MustNewQuery([]string{"x", "y", "z"}, [][2]int{{0, 1}, {1, 2}})
	// 300 roots with three leaf candidates each, every candidate the root
	// of a second-relation match with two leaves: 1,800 matches per run,
	// through a root probe of the second relation.
	var first, second []STwigMatch
	for i := 0; i < 300; i++ {
		base := graph.NodeID(1000 + 3*i)
		first = append(first, STwigMatch{Root: graph.NodeID(i), LeafSets: [][]graph.NodeID{{base, base + 1, base + 2}}})
		for k := graph.NodeID(0); k < 3; k++ {
			second = append(second, STwigMatch{Root: base + k, LeafSets: [][]graph.NodeID{{5000 + base, 6000 + base}}})
		}
	}
	rels := []*relation{
		newRelation(STwig{Root: 0, Leaves: []int{1}}, first),
		newRelation(STwig{Root: 1, Leaves: []int{2}}, second),
	}
	emitted := 0
	j := &joiner{q: q, rels: rels, blockSize: 64, emitBlock: func(block []graph.NodeID, n int) bool {
		emitted += len(block) / n
		return true
	}}
	j.run() // grows the block, builds the probed index
	if emitted != 1800 {
		t.Fatalf("fixture join emitted %d matches, want 1800", emitted)
	}
	if allocs := testing.AllocsPerRun(20, j.run); allocs != 0 {
		t.Errorf("a steady-state run allocates %v times", allocs)
	}
}
