package memcloud

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stwig/internal/graph"
)

func updatableCluster(t *testing.T) (*Cluster, *graph.Graph) {
	t.Helper()
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	return c, g
}

func TestUpdatesRequireLoadedCluster(t *testing.T) {
	c := MustNewCluster(Config{Machines: 2})
	if _, err := c.AddNode("x"); err == nil {
		t.Fatal("AddNode on unloaded cluster accepted")
	}
	if err := c.AddEdge(0, 1); err == nil {
		t.Fatal("AddEdge on unloaded cluster accepted")
	}
	if err := c.RemoveEdge(0, 1); err == nil {
		t.Fatal("RemoveEdge on unloaded cluster accepted")
	}
}

// TestApplyBatchMatchesOneShotMethods pins the batch entry point: one
// ApplyBatch must be observationally identical to the equivalent sequence
// of AddNode/AddEdge/RemoveEdge calls — same IDs, same per-mutation
// conflicts (which must not abort their successors), same epoch movement.
func TestApplyBatchMatchesOneShotMethods(t *testing.T) {
	c, g := updatableCluster(t)
	n := graph.NodeID(g.NumNodes())
	epoch0 := c.Epoch()

	results := c.ApplyBatch([]Mutation{
		{Op: MutAddNode, Label: "batchy"},
		{Op: MutAddNode, Label: "batchy"},
		{Op: MutAddEdge, U: n, V: n + 1},
		{Op: MutAddEdge, U: n, V: n + 1},    // duplicate: individual conflict
		{Op: MutRemoveEdge, U: n + 1, V: n}, // symmetric removal works
		{Op: MutAddEdge, U: 10_000, V: n},   // missing vertex: conflict
		{Op: MutAddEdge, U: n, V: n + 1},    // re-add after removal succeeds
		{Op: MutationOp(250)},               // unknown op: conflict, not a panic
	})
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[0].NodeID != n {
		t.Fatalf("batch add_node #1 = %+v, want node %d", results[0], n)
	}
	if results[1].Err != nil || results[1].NodeID != n+1 {
		t.Fatalf("batch add_node #2 = %+v, want node %d", results[1], n+1)
	}
	for i, wantErr := range []bool{false, false, false, true, false, true, false, true} {
		if (results[i].Err != nil) != wantErr {
			t.Fatalf("mutation %d: err = %v, want error=%v", i, results[i].Err, wantErr)
		}
	}
	// Epochs are per-mutation and monotone within the batch; conflicts do
	// not advance them.
	if results[0].Epoch != epoch0+1 || results[1].Epoch != epoch0+2 {
		t.Fatalf("epochs = %d, %d, want %d, %d", results[0].Epoch, results[1].Epoch, epoch0+1, epoch0+2)
	}
	if results[3].Epoch != results[2].Epoch {
		t.Fatalf("conflicting mutation advanced the epoch: %d → %d", results[2].Epoch, results[3].Epoch)
	}
	if c.Epoch() != epoch0+5 { // 2 adds + edge + remove + re-add
		t.Fatalf("final epoch = %d, want %d", c.Epoch(), epoch0+5)
	}
	// Net effect: the edge exists (re-added), both sides visible.
	cellU, _ := c.Cell(n)
	cellV, _ := c.Cell(n + 1)
	if !containsNode(wide(cellU.Neighbors), n+1) || !containsNode(wide(cellV.Neighbors), n) {
		t.Fatalf("batched edge not visible: %v / %v", cellU.Neighbors, cellV.Neighbors)
	}
	st := c.UpdateStats()
	if st.NodesAdded != 2 || st.EdgesAdded != 2 || st.EdgesRemoved != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// An unloaded cluster fails every mutation without touching anything.
	empty := MustNewCluster(Config{Machines: 2})
	for i, r := range empty.ApplyBatch([]Mutation{{Op: MutAddNode, Label: "x"}, {Op: MutAddEdge, U: 0, V: 1}}) {
		if r.Err == nil {
			t.Fatalf("mutation %d on unloaded cluster accepted", i)
		}
	}
}

func TestAddNodeAssignsFreshIDs(t *testing.T) {
	c, g := updatableCluster(t)
	id1, err := c.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.AddNode("newlabel")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != graph.NodeID(g.NumNodes()) || id2 != id1+1 {
		t.Fatalf("ids = %d, %d; want %d, %d", id1, id2, g.NumNodes(), g.NumNodes()+1)
	}
	// The new vertex is loadable and indexed on its owner machine.
	cell, ok := c.Cell(id2)
	if !ok {
		t.Fatal("new vertex not loadable")
	}
	if c.Labels().Name(cell.Label) != "newlabel" {
		t.Fatalf("label = %q", c.Labels().Name(cell.Label))
	}
	owner := c.Machine(c.Owner(id2))
	found := false
	for _, x := range owner.LocalIDs(cell.Label) {
		if x == id2 {
			found = true
		}
	}
	if !found {
		t.Fatal("new vertex missing from owner string index")
	}
	if got := c.UpdateStats().NodesAdded; got != 2 {
		t.Fatalf("NodesAdded = %d", got)
	}
}

// Vertex 0 has degree 3 and vertex 4 degree 2: with the bound at 3, the
// insertion takes 0's cell over it and leaves 4's under it; at 2, both cells
// are label-ordered before and after.
func TestAddEdgeVisibleBothSides(t *testing.T) {
	for _, bound := range []int{labelOrderBound, 3, 2} {
		lowerOrderBound(t, bound)
		c, g := updatableCluster(t)
		// testGraph has no edge (0,4).
		if err := c.AddEdge(0, 4); err != nil {
			t.Fatal(err)
		}
		cell0, _ := c.Cell(0)
		cell4, _ := c.Cell(4)
		if !containsNode(wide(cell0.Neighbors), 4) || !containsNode(wide(cell4.Neighbors), 0) {
			t.Fatalf("edge not visible: %v / %v", cell0.Neighbors, cell4.Neighbors)
		}
		// Adjacency stays in the cell's order after insertion, and the
		// local counts follow.
		for _, cell := range []Cell{cell0, cell4} {
			want := inCellOrder(wide(cell.Neighbors), g.Label)
			if !slices.Equal(wide(cell.Neighbors), want) {
				t.Fatalf("bound %d: cell of %d out of order after insert: %v, want %v", bound, cell.ID, cell.Neighbors, want)
			}
			if local := localCount(c, cell.ID, want); cell.local != local {
				t.Fatalf("bound %d: cell of %d counts %d local neighbours, want %d", bound, cell.ID, cell.local, local)
			}
		}
	}
}

func TestAddEdgeRejections(t *testing.T) {
	c, _ := updatableCluster(t)
	if err := c.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := c.AddEdge(0, 9999); err == nil {
		t.Fatal("edge to missing vertex accepted")
	}
	if err := c.AddEdge(9999, 0); err == nil {
		t.Fatal("edge from missing vertex accepted")
	}
	if err := c.AddEdge(0, 1); err == nil { // exists in testGraph
		t.Fatal("duplicate edge accepted")
	}
}

// TestEdgeUpdatesRejectOutOfRangeIDsOnTablePartitioners pins the ID
// validation that must run BEFORE any Partitioner sees the vertex:
// BFS/range partitioners index owner tables by ID, so an unchecked
// negative or beyond-range ID from the network panicked here instead of
// erroring. Exercised through both the one-shot methods and ApplyBatch.
func TestEdgeUpdatesRejectOutOfRangeIDsOnTablePartitioners(t *testing.T) {
	g := testGraph(t)
	c := MustNewCluster(Config{Machines: 2, Partitioner: NewBFSPartitioner(g, 2)})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]graph.NodeID{{-1, 0}, {0, -1}, {1 << 40, 0}, {0, graph.NodeID(g.NumNodes())}} {
		if err := c.AddEdge(e[0], e[1]); err == nil {
			t.Fatalf("AddEdge(%d,%d) accepted an out-of-range vertex", e[0], e[1])
		}
		if err := c.RemoveEdge(e[0], e[1]); err == nil {
			t.Fatalf("RemoveEdge(%d,%d) accepted an out-of-range vertex", e[0], e[1])
		}
	}
	results := c.ApplyBatch([]Mutation{
		{Op: MutAddEdge, U: -1, V: 0},
		{Op: MutAddNode, Label: "survivor"}, // successors still apply
	})
	if results[0].Err == nil {
		t.Fatal("batched out-of-range edge accepted")
	}
	if results[1].Err != nil {
		t.Fatalf("mutation after rejected ID failed: %v", results[1].Err)
	}
}

func TestAddEdgeUpdatesCrossPairs(t *testing.T) {
	c, g := updatableCluster(t)
	// Nodes 0 (label a, machine 0) and 6 (label a, machine 3): no (a,a)
	// cross pair exists between machines 0 and 3 initially.
	la := g.Labels().MustLookup("a")
	if adj := crossAdj(c, la, la); adj[0]&(1<<3) != 0 {
		t.Skip("pair already present; test graph changed")
	}
	if err := c.AddEdge(0, 6); err != nil {
		t.Fatal(err)
	}
	adj := crossAdj(c, la, la)
	if adj[0]&(1<<3) == 0 {
		t.Fatal("cross pair m0->m3 not recorded after AddEdge")
	}
	if adj[3]&1 == 0 {
		t.Fatal("cross pair m3->m0 not recorded after AddEdge")
	}
}

func TestRemoveEdge(t *testing.T) {
	c, _ := updatableCluster(t)
	if err := c.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	cell0, _ := c.Cell(0)
	cell1, _ := c.Cell(1)
	if containsNode(wide(cell0.Neighbors), 1) || containsNode(wide(cell1.Neighbors), 0) {
		t.Fatal("edge still visible after removal")
	}
	if err := c.RemoveEdge(0, 1); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := c.RemoveEdge(9999, 0); err == nil {
		t.Fatal("removal from missing vertex accepted")
	}
	if got := c.UpdateStats().EdgesRemoved; got != 1 {
		t.Fatalf("EdgesRemoved = %d", got)
	}
}

func TestCompactReclaimsGarbage(t *testing.T) {
	c, _ := updatableCluster(t)
	// Each insert relocates a cell, leaving its old extent as garbage.
	if err := c.AddEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge(0, 6); err != nil {
		t.Fatal(err)
	}
	garbage := c.UpdateStats().GarbageWords
	if garbage <= 0 {
		t.Fatalf("GarbageWords = %d, want > 0", garbage)
	}
	reclaimed := c.CompactAll()
	if reclaimed != garbage {
		t.Fatalf("reclaimed %d, want %d", reclaimed, garbage)
	}
	if c.UpdateStats().GarbageWords != 0 {
		t.Fatal("garbage counter not reset")
	}
	// All cells still intact after compaction.
	cell0, ok := c.Cell(0)
	if !ok || !containsNode(wide(cell0.Neighbors), 4) || !containsNode(wide(cell0.Neighbors), 6) {
		t.Fatalf("cell damaged by compaction: %v", cell0.Neighbors)
	}
	if c.CompactAll() != 0 {
		t.Fatal("second compaction reclaimed nonzero")
	}
}

// TestHubAddRemoveLoopStaysBounded adds and removes the same edge on a hub
// over and over: every add relocates the hub's cell, more than a thousand
// words of garbage a round, yet the arena compacts instead of growing, and
// the cells read as loaded at the end.
func TestHubAddRemoveLoopStaysBounded(t *testing.T) {
	g := loadTestGraph(5, 3000)
	c := MustNewCluster(Config{Machines: 4})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	hub := graph.NodeID(0)
	for v := int64(1); v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) > g.Degree(hub) {
			hub = graph.NodeID(v)
		}
	}
	other := graph.NodeID(0)
	for g.HasEdge(hub, other) || other == hub {
		other++
	}
	store := c.machines[c.Owner(hub)].store
	loaded := cap(store.arena)
	const rounds = 2000 // ~2.5 M words of relocated hub cells, unreclaimed
	for i := 0; i < rounds; i++ {
		if err := c.AddEdge(hub, other); err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveEdge(hub, other); err != nil {
			t.Fatal(err)
		}
	}
	if got := cap(store.arena); got > 2*loaded {
		t.Fatalf("hub machine's arena grew from %d to %d words over %d add/remove rounds", loaded, got, rounds)
	}
	for v := int64(0); v < g.NumNodes(); v++ {
		cell, _ := c.Cell(graph.NodeID(v))
		if !slices.Equal(slices.Sorted(slices.Values(wide(cell.Neighbors))), g.Neighbors(graph.NodeID(v))) {
			t.Fatalf("vertex %d reads %d neighbours after the loop, loaded with %d", v, len(cell.Neighbors), g.Degree(graph.NodeID(v)))
		}
	}
}

func TestPropertyUpdatesMatchRebuiltGraph(t *testing.T) {
	// Applying random updates to a loaded cluster must leave it equivalent
	// to a cluster loaded from the equivalently mutated graph: the same
	// cells, in the same order, with the same local counts. At the lowered
	// bound the updates take cells across it both ways.
	for _, bound := range []int{labelOrderBound, 3} {
		lowerOrderBound(t, bound)
		checkUpdatesMatchRebuiltGraph(t)
	}
}

func checkUpdatesMatchRebuiltGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(20)
		labels := []string{"a", "b", "c"}

		// Base graph.
		type edge struct{ u, v graph.NodeID }
		nodeLabels := make([]string, n)
		for i := range nodeLabels {
			nodeLabels[i] = labels[rng.Intn(3)]
		}
		edgeSet := map[edge]bool{}
		for i := 0; i < 2*n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			edgeSet[edge{u, v}] = true
		}
		build := func(extraLabels []string, extraEdges []edge, removed map[edge]bool) *graph.Graph {
			b := graph.NewBuilder(graph.Undirected())
			for _, l := range nodeLabels {
				b.AddNode(l)
			}
			for _, l := range extraLabels {
				b.AddNode(l)
			}
			for e := range edgeSet {
				if !removed[e] {
					b.MustAddEdge(e.u, e.v)
				}
			}
			for _, e := range extraEdges {
				b.MustAddEdge(e.u, e.v)
			}
			return b.Build()
		}

		k := 2 + rng.Intn(3)
		c := MustNewCluster(Config{Machines: k})
		if err := c.LoadGraph(build(nil, nil, nil)); err != nil {
			return false
		}

		// Random updates: add 3 nodes, add 5 edges, remove up to 3.
		var extraLabels []string
		var extraEdges []edge
		removed := map[edge]bool{}
		for i := 0; i < 3; i++ {
			l := labels[rng.Intn(3)]
			if _, err := c.AddNode(l); err != nil {
				return false
			}
			extraLabels = append(extraLabels, l)
		}
		total := graph.NodeID(n + 3)
		for i := 0; i < 5; i++ {
			u, v := graph.NodeID(rng.Intn(int(total))), graph.NodeID(rng.Intn(int(total)))
			if u == v {
				continue
			}
			if err := c.AddEdge(u, v); err != nil {
				continue // duplicate etc.
			}
			extraEdges = append(extraEdges, edge{u, v})
		}
		for e := range edgeSet {
			if len(removed) >= 3 {
				break
			}
			if err := c.RemoveEdge(e.u, e.v); err != nil {
				return false
			}
			removed[e] = true
		}
		if rng.Intn(2) == 0 {
			c.CompactAll()
		}

		// Compare against a freshly loaded equivalent graph.
		want := build(extraLabels, extraEdges, removed)
		for v := int64(0); v < want.NumNodes(); v++ {
			id := graph.NodeID(v)
			cell, ok := c.Cell(id)
			if !ok {
				return false
			}
			if c.Labels().Name(cell.Label) != want.LabelString(id) {
				return false
			}
			wantN := inCellOrder(want.Neighbors(id), func(w graph.NodeID) graph.LabelID {
				l, _ := c.Labels().Lookup(want.LabelString(w))
				return l
			})
			if len(cell.Neighbors) != len(wantN) || cell.local != localCount(c, id, wantN) {
				return false
			}
			got := wide(cell.Neighbors)
			for i := range wantN {
				if got[i] != wantN[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func containsNode(ns []graph.NodeID, id graph.NodeID) bool {
	for _, x := range ns {
		if x == id {
			return true
		}
	}
	return false
}
