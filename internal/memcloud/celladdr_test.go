package memcloud

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"stwig/internal/graph"
)

// The address of a vertex is two 4-byte entries, one in each table, and
// the tables are all the cluster spends per vertex outside the stores and
// the cross-pair table: a label check reads only the tag table, half of
// the address.
func TestCellAddrIsTwoFourByteTables(t *testing.T) {
	c := loadedCluster(t, testGraph(t), 2)
	if n := unsafe.Sizeof(c.tags[0]); n != 4 {
		t.Fatalf("a tag-table entry is %d bytes, want 4", n)
	}
	if n := unsafe.Sizeof(c.slots[0]); n != 4 {
		t.Fatalf("a slot-table entry is %d bytes, want 4", n)
	}
	// The local-neighbour count sits in what was the directory entry's
	// padding.
	if n := unsafe.Sizeof(cellRef{}); n != 16 {
		t.Fatalf("a directory entry is %d bytes, want 16", n)
	}
	// A neighbour is an ID in 4 bytes: the cluster holds at most MaxNodes.
	if n := unsafe.Sizeof(c.machines[0].store.arena[0]); n != 4 {
		t.Fatalf("an arena entry is %d bytes, want 4", n)
	}
	n := c.NumNodes()
	if int64(len(c.tags)) != n || int64(len(c.slots)) != n {
		t.Fatalf("tables hold %d tags and %d slots for %d vertices", len(c.tags), len(c.slots), n)
	}
	stores := c.cross.memoryBytes()
	for i := 0; i < c.NumMachines(); i++ {
		m := c.Machine(i)
		stores += m.store.memoryBytes() + m.index.memoryBytes()
	}
	if got, want := c.TotalMemoryBytes()-stores, 8*n; got != want {
		t.Fatalf("the address tables take %d bytes for %d vertices, want 8 per vertex", got, n)
	}
}

func TestCellAddrRoundTrips(t *testing.T) {
	labels := []graph.LabelID{0, 1, MaxLabels - 2, MaxLabels - 1, graph.NoLabel}
	for owner := 0; owner < MaxMachines; owner++ {
		for _, l := range labels {
			tag := newCellTag(owner, l)
			for _, slot := range []uint32{0, 1, MaxNodes - 1} {
				a := cellAddr{slot: slot, tag: tag}
				if a.owner() != owner || a.label() != l || a.slot != slot {
					t.Fatalf("cellAddr{%d, newCellTag(%d, %d)} reads back slot %d, owner %d, label %d",
						slot, owner, l, a.slot, a.owner(), a.label())
				}
			}
		}
	}
}

// An unlabelled vertex has an owner like any other: its label resolves to
// NoLabel, checking it from another machine is charged, and a label-ordered
// cell lists it after every labelled neighbour.
func TestUnlabelledVertexResolvesToNoLabel(t *testing.T) {
	lowerOrderBound(t, 2)
	b := graph.NewBuilder(graph.Undirected())
	b.AddNode("a")
	b.AddNode("b")
	b.AddNodeLabelID(graph.NoLabel)
	b.AddNode("a")
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}} {
		b.MustAddEdge(e[0], e[1])
	}
	c := loadedCluster(t, b.Build(), 2) // machine 0 holds 0 and 1, machine 1 holds 2 and 3
	la := c.Labels().MustLookup("a")

	got, net := resolveFrom(c, 0, []graph.NodeID{0, 2})
	if got[0] != la || got[1] != graph.NoLabel {
		t.Fatalf("LabelBatch resolved %v, want [%d %d]", got, la, graph.NoLabel)
	}
	if net != (NetStats{}) {
		t.Fatalf("reading labels charged %v", net)
	}
	if net := chargeFrom(c, 0, 1); net.Messages != 1 {
		t.Fatalf("checking machine 1's unlabelled vertex from machine 0 sent %d messages, want 1", net.Messages)
	}
	cell, ok := c.Cell(2)
	if !ok || cell.Label != graph.NoLabel || !slices.Equal(wide(cell.Neighbors), []graph.NodeID{0, 1}) {
		t.Fatalf("Cell(2) = %+v, %v; want the unlabelled cell adjacent to 0 and 1", cell, ok)
	}
	if cell, ok := c.Machine(1).LoadLocal(2); !ok || cell.Label != graph.NoLabel {
		t.Fatalf("LoadLocal(2) = %+v, %v", cell, ok)
	}
	if cell, _ := c.Cell(0); !cell.LabelOrdered() || !slices.Equal(wide(cell.Neighbors), []graph.NodeID{3, 1, 2}) {
		t.Fatalf("Cell(0) lists %v (label-ordered %v), want [3 1 2]: a, b, then the unlabelled vertex", cell.Neighbors, cell.LabelOrdered())
	}
}

// lowerLabelCap makes the label cap reachable in a test.
func lowerLabelCap(t *testing.T, n int) {
	old := labelCap
	labelCap = n
	t.Cleanup(func() { labelCap = old })
}

func TestLabelCap(t *testing.T) {
	g := testGraph(t) // six labels
	lowerLabelCap(t, g.Labels().Len()-1)
	c := MustNewCluster(Config{Machines: 2})
	if err := c.LoadGraph(g); err == nil {
		t.Fatalf("LoadGraph accepted %d labels over a cap of %d", g.Labels().Len(), labelCap)
	}

	labelCap = g.Labels().Len()
	c = loadedCluster(t, g, 2)
	nodes, epoch := c.NumNodes(), c.Epoch()
	if _, err := c.AddNode("a"); err != nil {
		t.Fatalf("AddNode with a known label at the cap: %v", err)
	}
	if _, err := c.AddNode("new"); err == nil {
		t.Fatal("AddNode interned a label over the cap")
	}
	if _, ok := c.Labels().Lookup("new"); ok || c.Labels().Len() != labelCap {
		t.Fatalf("refused AddNode left %d labels interned, the cap is %d", c.Labels().Len(), labelCap)
	}
	if c.NumNodes() != nodes+1 || c.Epoch() != epoch+1 {
		t.Fatalf("after one accepted and one refused AddNode: %d nodes, epoch %d; want %d, %d",
			c.NumNodes(), c.Epoch(), nodes+1, epoch+1)
	}
}

// lowerNodeCap makes the vertex bound reachable in a test.
func lowerNodeCap(t *testing.T, n int64) {
	old := nodeCap
	nodeCap = n
	t.Cleanup(func() { nodeCap = old })
}

// TestNodeCap: a load refuses a graph of more vertices than a cluster
// holds, from memory or from a stream, and AddNode refuses the vertex that
// would pass the bound and changes nothing.
func TestNodeCap(t *testing.T) {
	g := testGraph(t)
	n := g.NumNodes()
	lowerNodeCap(t, n-1)
	if err := MustNewCluster(Config{Machines: 2}).LoadGraph(g); err == nil {
		t.Fatalf("LoadGraph accepted %d vertices over a cap of %d", n, nodeCap)
	}
	if err := MustNewCluster(Config{Machines: 2}).LoadBinary(bytes.NewReader(binaryOf(t, g))); err == nil {
		t.Fatalf("LoadBinary accepted %d vertices over a cap of %d", n, nodeCap)
	}

	nodeCap = n + 1
	c := loadedCluster(t, g, 2)
	if id, err := c.AddNode("a"); err != nil || int64(id) != n {
		t.Fatalf("AddNode below the cap = %d, %v; want vertex %d", id, err, n)
	}
	epoch := c.Epoch()
	if id, err := c.AddNode("a"); err == nil {
		t.Fatalf("AddNode added vertex %d over a cap of %d", id, nodeCap)
	}
	if r := c.ApplyBatch([]Mutation{{Op: MutAddNode, Label: "new"}})[0]; r.Err == nil || r.NodeID != graph.InvalidNode {
		t.Fatalf("a batched AddNode over the cap = %+v, want an error", r)
	}
	if _, ok := c.Labels().Lookup("new"); ok {
		t.Fatal("a refused AddNode interned its label")
	}
	if c.NumNodes() != nodeCap || c.Epoch() != epoch {
		t.Fatalf("after refused AddNodes: %d vertices, epoch %d; want %d, %d", c.NumNodes(), c.Epoch(), nodeCap, epoch)
	}
}
