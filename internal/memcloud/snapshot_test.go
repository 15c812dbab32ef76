package memcloud

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"slices"
	"testing"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// snapshotGraph reads c's snapshot stream back into a graph.
func snapshotGraph(c *Cluster) (*graph.Graph, error) {
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return graph.ReadBinary(&buf)
}

// checkSnapshotBytes compares c's snapshot stream with the way a snapshot
// was taken before WriteSnapshot existed: the edges {u,v | u<v} built, vertex
// by vertex, into an undirected graph.Graph that WriteBinary serializes.
// Checkpoint files and the replication bootstrap frame must not move a byte.
func checkSnapshotBytes(t *testing.T, c *Cluster) {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected())
	n := c.NumNodes()
	for v := int64(0); v < n; v++ {
		cell, _ := c.Cell(graph.NodeID(v))
		if cell.Label == graph.NoLabel {
			b.AddNodeLabelID(graph.NoLabel)
		} else {
			b.AddNode(c.Labels().Name(cell.Label))
		}
	}
	for v := int64(0); v < n; v++ {
		cell, _ := c.Cell(graph.NodeID(v))
		for _, u := range wide(cell.Neighbors) {
			if cell.ID < u {
				b.MustAddEdge(cell.ID, u)
			}
		}
	}
	var want, got bytes.Buffer
	if err := graph.WriteBinary(&want, b.Build()); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot stream (%d bytes) differs from the built graph's serialization (%d bytes)", got.Len(), want.Len())
	}
	if n := c.SnapshotBytes(); n != int64(got.Len()) {
		t.Fatalf("SnapshotBytes = %d, the stream is %d bytes", n, got.Len())
	}
}

// TestSnapshotBytesIsTheStreamLength: SnapshotBytes is the length of what
// WriteSnapshot writes, on graphs with hubs and unlabelled vertices, after
// loading and after updates that add a label, grow a hub and delete edges.
func TestSnapshotBytesIsTheStreamLength(t *testing.T) {
	check := func(what string, c *Cluster) {
		t.Helper()
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if n := c.SnapshotBytes(); n != int64(buf.Len()) {
			t.Fatalf("%s: SnapshotBytes = %d, WriteSnapshot wrote %d", what, n, buf.Len())
		}
	}
	if n := MustNewCluster(Config{Machines: 2}).SnapshotBytes(); n != 0 {
		t.Fatalf("unloaded cluster: SnapshotBytes = %d, want 0", n)
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := loadTestGraph(seed, 1500)
		c := MustNewCluster(Config{Machines: 4})
		if err := c.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		check("loaded", c)
		hub := graph.NodeID(0)
		for v := int64(1); v < g.NumNodes(); v++ {
			if g.Degree(graph.NodeID(v)) > g.Degree(hub) {
				hub = graph.NodeID(v)
			}
		}
		n := graph.NodeID(g.NumNodes())
		muts := []Mutation{{Op: MutAddNode, Label: "fresh"}, {Op: MutAddNode, Label: "a"}, {Op: MutAddEdge, U: n, V: n + 1}}
		for v := graph.NodeID(0); v < n; v += 7 {
			if v != hub && !g.HasEdge(hub, v) {
				muts = append(muts, Mutation{Op: MutAddEdge, U: hub, V: v})
			}
		}
		for _, w := range g.Neighbors(hub)[:20] {
			muts = append(muts, Mutation{Op: MutRemoveEdge, U: hub, V: w})
		}
		for i, r := range c.ApplyBatch(muts) {
			if r.Err != nil {
				t.Fatalf("seed %d: mutation %d: %v", seed, i, r.Err)
			}
		}
		check("updated", c)
	}
}

// TestSnapshotGraphRoundTrip: load → mutate → snapshot → reload must
// reproduce every vertex's label and neighbour set, including vertices and
// edges created after load, with deletions applied — at the real bound and
// with most cells label-ordered. The sets, not the cells, are compared:
// the reload may number labels differently, and so order a label-ordered
// cell differently.
func TestSnapshotGraphRoundTrip(t *testing.T) {
	for _, bound := range []int{labelOrderBound, 3} {
		lowerOrderBound(t, bound)
		checkSnapshotGraphRoundTrip(t)
	}
}

func checkSnapshotGraphRoundTrip(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 6, AvgDegree: 4, NumLabels: 3, Seed: 7})
	c := MustNewCluster(Config{Machines: 3})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}

	// Mutate through the batch path: fresh vertices, a stitch between
	// them, and a removal of a pre-existing edge.
	var target [2]graph.NodeID
	found := false
	for v := int64(0); v < g.NumNodes() && !found; v++ {
		if nbs := g.Neighbors(graph.NodeID(v)); len(nbs) > 0 {
			target = [2]graph.NodeID{graph.NodeID(v), nbs[0]}
			found = true
		}
	}
	if !found {
		t.Fatal("generated graph has no edges")
	}
	muts := []Mutation{
		{Op: MutAddNode, Label: "fresh-a"},
		{Op: MutAddNode, Label: "fresh-b"},
		{Op: MutAddEdge, U: graph.NodeID(g.NumNodes()), V: graph.NodeID(g.NumNodes() + 1)},
		{Op: MutRemoveEdge, U: target[0], V: target[1]},
	}
	for i, r := range c.ApplyBatch(muts) {
		if r.Err != nil {
			t.Fatalf("mutation %d: %v", i, r.Err)
		}
	}

	checkSnapshotBytes(t, c)
	snap, err := snapshotGraph(c)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes() != c.NumNodes() {
		t.Fatalf("snapshot has %d nodes, cluster has %d", snap.NumNodes(), c.NumNodes())
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot graph invalid: %v", err)
	}

	// Reload onto a fresh cluster and compare every cell.
	c2 := MustNewCluster(Config{Machines: 5})
	if err := c2.LoadGraph(snap); err != nil {
		t.Fatal(err)
	}
	n := c.NumNodes()
	for v := int64(0); v < n; v++ {
		id := graph.NodeID(v)
		a, okA := c.Cell(id)
		b, okB := c2.Cell(id)
		if !okA || !okB {
			t.Fatalf("vertex %d: load ok=%v/%v", v, okA, okB)
		}
		la := c.Labels().Name(a.Label)
		lb := c2.Labels().Name(b.Label)
		if la != lb {
			t.Fatalf("vertex %d: label %q != %q", v, la, lb)
		}
		if len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("vertex %d: degree %d != %d", v, len(a.Neighbors), len(b.Neighbors))
		}
		na, nb := slices.Sorted(slices.Values(a.Neighbors)), slices.Sorted(slices.Values(b.Neighbors))
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d: neighbor %d: %d != %d", v, i, na[i], nb[i])
			}
		}
	}

	// The removed edge must be gone, the stitched edge present.
	if snap.HasEdge(target[0], target[1]) {
		t.Fatalf("removed edge (%d,%d) survived the snapshot", target[0], target[1])
	}
	if !snap.HasEdge(graph.NodeID(g.NumNodes()), graph.NodeID(g.NumNodes()+1)) {
		t.Fatal("stitched edge missing from the snapshot")
	}
}

func TestRestoreEpoch(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 4, AvgDegree: 3, NumLabels: 2, Seed: 1})
	c := MustNewCluster(Config{Machines: 2})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	c.RestoreEpoch(41)
	if _, err := c.AddNode("x"); err != nil {
		t.Fatal(err)
	}
	if e := c.Epoch(); e != 42 {
		t.Fatalf("epoch after restore+mutation = %d, want 42", e)
	}
}

func TestSnapshotGraphUnloaded(t *testing.T) {
	c := MustNewCluster(Config{Machines: 1})
	if _, err := snapshotGraph(c); err == nil {
		t.Fatal("snapshot of an unloaded cluster succeeded")
	}
}

// TestWriteSnapshotHoldsNoGraphCopy: a snapshot costs its write buffer and the
// label renumbering, whatever the graph's size — a checkpoint in flight must
// not show up as a second copy of the graph on the heap.
func TestWriteSnapshotHoldsNoGraphCopy(t *testing.T) {
	for _, scale := range []int{8, 14} {
		g := rmat.MustGenerate(rmat.Params{Scale: scale, AvgDegree: 8, NumLabels: 16, Seed: 3})
		c := MustNewCluster(Config{Machines: 4})
		if err := c.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.WriteSnapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		const budget = 1<<20 + 64<<10 // graph.WriteBinaryFrom's buffer, then small change
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("scale %d (%d bytes of cells): WriteSnapshot allocated %d bytes, budget %d", scale, c.TotalMemoryBytes(), got, budget)
		}
	}
}

// TestSnapshotStreamsPinned pins the checkpoint format byte for byte: the
// SHA-256 of WriteSnapshot's stream for a scale-16 R-MAT graph loaded with
// a lowered label-order bound, so that its hubs are label-ordered, and
// again after a fixed run of updates in which one cell grows past the bound
// and another shrinks back to it. A change to the store's layout must not
// move either digest.
func TestSnapshotStreamsPinned(t *testing.T) {
	const bound = 64
	lowerOrderBound(t, bound)
	g := rmat.MustGenerate(rmat.Params{Scale: 16, AvgDegree: 8, NumLabels: 16, Seed: 20120827})
	c := MustNewCluster(Config{Machines: 8})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	digest := func() string {
		h := sha256.New()
		if err := c.WriteSnapshot(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	ordered := func(v graph.NodeID) bool {
		cell, _ := c.Cell(v)
		return cell.LabelOrdered()
	}

	// up has bound neighbours and gains one; down has bound+1 and loses
	// one: the lowest IDs of those degrees.
	up, down := graph.InvalidNode, graph.InvalidNode
	hubs := 0
	for v := graph.NodeID(0); v < graph.NodeID(g.NumNodes()); v++ {
		switch d := g.Degree(v); {
		case d == bound && up == graph.InvalidNode:
			up = v
		case d == bound+1 && down == graph.InvalidNode:
			down = v
		}
		if ordered(v) {
			hubs++
		}
	}
	if up == graph.InvalidNode || down == graph.InvalidNode || hubs < 10 {
		t.Fatalf("graph has no vertex of degree %d or %d, or only %d label-ordered cells", bound, bound+1, hubs)
	}
	if got, want := digest(), "edbda15250213c733b0c4925892e56c0cc437451d737abed1335b6b025ef5c4e"; got != want {
		t.Fatalf("loaded: snapshot SHA-256 %s, want %s", got, want)
	}

	n := graph.NodeID(g.NumNodes())
	muts := []Mutation{
		{Op: MutAddNode, Label: "fresh"},
		{Op: MutAddNode, Label: rmat.LabelName(3)},
		{Op: MutAddEdge, U: up, V: n},
		{Op: MutAddEdge, U: n, V: n + 1},
		{Op: MutAddEdge, U: n + 1, V: down},
		{Op: MutRemoveEdge, U: down, V: g.Neighbors(down)[0]},
		{Op: MutRemoveEdge, U: down, V: g.Neighbors(down)[1]},
	}
	for v := graph.NodeID(1); v < 200; v += 13 {
		if v != down {
			muts = append(muts, Mutation{Op: MutAddEdge, U: v, V: n + 1})
		}
	}
	for i, r := range c.ApplyBatch(muts) {
		if r.Err != nil {
			t.Fatalf("mutation %d (%+v): %v", i, muts[i], r.Err)
		}
	}
	if !ordered(up) || ordered(down) {
		t.Fatalf("after the updates vertex %d is label-ordered %v (want true), vertex %d %v (want false)", up, ordered(up), down, ordered(down))
	}
	if got, want := digest(), "6b67292774f8e09b1cbe94c20b870ff93ceba98fc78ed38a7032f92ec410c15f"; got != want {
		t.Fatalf("updated: snapshot SHA-256 %s, want %s", got, want)
	}
}
