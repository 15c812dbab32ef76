package memcloud

import (
	"testing"
	"unsafe"

	"stwig/internal/graph"
)

// The address of a vertex is two 4-byte entries, one in each table, and
// the tables are all the cluster spends per vertex outside the stores: a
// label check reads only the tag table, half of the address.
func TestCellAddrIsTwoFourByteTables(t *testing.T) {
	c := loadedCluster(t, testGraph(t), 2)
	if n := unsafe.Sizeof(c.tags[0]); n != 4 {
		t.Fatalf("a tag-table entry is %d bytes, want 4", n)
	}
	if n := unsafe.Sizeof(c.slots[0]); n != 4 {
		t.Fatalf("a slot-table entry is %d bytes, want 4", n)
	}
	n := c.NumNodes()
	if int64(len(c.tags)) != n || int64(len(c.slots)) != n {
		t.Fatalf("tables hold %d tags and %d slots for %d vertices", len(c.tags), len(c.slots), n)
	}
	var stores int64
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
			for _, slot := range []uint32{0, 1, maxSlots - 1} {
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
// NoLabel, and asking for it from another machine is charged.
func TestUnlabelledVertexResolvesToNoLabel(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected())
	b.AddNode("a")
	b.AddNodeLabelID(graph.NoLabel)
	b.MustAddEdge(0, 1)
	c := loadedCluster(t, b.Build(), 2)
	la := c.Labels().MustLookup("a")

	got, net := resolveFrom(c, 0, []graph.NodeID{0, 1})
	if got[0] != la || got[1] != graph.NoLabel {
		t.Fatalf("LabelBatch resolved %v, want [%d %d]", got, la, graph.NoLabel)
	}
	if net.Messages != 1 {
		t.Fatalf("resolving machine 1's unlabelled vertex from machine 0 sent %d messages, want 1", net.Messages)
	}
	cell, ok := c.Cell(1)
	if !ok || cell.Label != graph.NoLabel || len(cell.Neighbors) != 1 || cell.Neighbors[0] != 0 {
		t.Fatalf("Cell(1) = %+v, %v; want the unlabelled cell adjacent to 0", cell, ok)
	}
	if cell, ok := c.Machine(1).LoadLocal(1); !ok || cell.Label != graph.NoLabel {
		t.Fatalf("LoadLocal(1) = %+v, %v", cell, ok)
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
