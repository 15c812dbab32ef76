package memcloud

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// loadTestGraph builds an undirected graph of n vertices over five labels,
// about a tenth of them unlabelled, with hubs of more than labelOrderBound
// neighbours.
func loadTestGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	names := []string{"a", "b", "c", "d", "e"}
	for v := 0; v < n; v++ {
		if rng.Intn(10) == 0 {
			b.AddNodeLabelID(graph.NoLabel)
		} else {
			b.AddNode(names[rng.Intn(len(names))])
		}
	}
	for e := 0; e < 4*n; e++ {
		if u, w := rng.Intn(n), rng.Intn(n); u != w {
			b.MustAddEdge(graph.NodeID(u), graph.NodeID(w))
		}
	}
	for h := 0; h < 3; h++ {
		hub := rng.Intn(n)
		for _, w := range rng.Perm(n)[:min(n, labelOrderBound+200)] {
			if w != hub {
				b.MustAddEdge(graph.NodeID(hub), graph.NodeID(w))
			}
		}
	}
	return b.Build()
}

func binaryOf(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// labelName is the name of a cell's label, "" for NoLabel.
func labelName(c *Cluster, l graph.LabelID) string {
	if l == graph.NoLabel {
		return ""
	}
	return c.Labels().Name(l)
}

// checkSameCells compares every cell of got with want's: the label by name,
// the local count, and the neighbours — in the same order when exact, else
// as sets in a label-ordered cell, whose order follows the label numbering.
func checkSameCells(t *testing.T, got, want *Cluster, exact bool) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%d vertices, want %d", got.NumNodes(), want.NumNodes())
	}
	for v := graph.NodeID(0); int64(v) < want.NumNodes(); v++ {
		a, _ := got.Cell(v)
		b, _ := want.Cell(v)
		if labelName(got, a.Label) != labelName(want, b.Label) || (exact && a.Label != b.Label) || a.local != b.local {
			t.Fatalf("vertex %d: label %d %q, %d local; want %d %q, %d local",
				v, a.Label, labelName(got, a.Label), a.local, b.Label, labelName(want, b.Label), b.local)
		}
		an, bn := a.Neighbors, b.Neighbors
		if !exact && b.LabelOrdered() {
			an, bn = slices.Sorted(slices.Values(an)), slices.Sorted(slices.Values(bn))
		}
		if !slices.Equal(an, bn) {
			t.Fatalf("vertex %d: neighbours %v, want %v", v, a.Neighbors, b.Neighbors)
		}
	}
}

// checkStringIndexes compares every machine's posting lists with its
// vertices and, when tight, requires each list's capacity to be its length.
func checkStringIndexes(t *testing.T, c *Cluster, tight bool) {
	t.Helper()
	for _, m := range c.machines {
		want := map[graph.LabelID][]graph.NodeID{}
		for v := graph.NodeID(0); int64(v) < c.NumNodes(); v++ {
			if a, _ := c.locate(v); a.owner() == m.id {
				want[a.label()] = append(want[a.label()], v)
			}
		}
		indexed := 0
		for _, ids := range m.index.lists {
			if len(ids) > 0 {
				indexed++
			}
		}
		if indexed != len(want) {
			t.Fatalf("machine %d indexes %d labels, holds %d", m.id, indexed, len(want))
		}
		for l, ids := range want {
			got := m.LocalIDs(l)
			if !slices.Equal(got, ids) {
				t.Fatalf("machine %d: label %d lists %v, want %v", m.id, l, got, ids)
			}
			if tight && cap(got) != len(got) {
				t.Fatalf("machine %d: label %d's list has room for %d postings, holds %d", m.id, l, cap(got), len(got))
			}
		}
	}
}

// A streamed load and a load of the same graph from memory build the same
// cluster: the same cells (hubs in label order and unlabelled vertices
// included), string indexes, cross-pair table, size and snapshot.
func TestLoadBinaryMatchesLoadGraph(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := loadTestGraph(seed, 5000) // more vertices than one loadChunk
		file := binaryOf(t, g)
		for _, k := range []int{1, 3, 8} {
			want := MustNewCluster(Config{Machines: k})
			if err := want.LoadGraph(g); err != nil {
				t.Fatal(err)
			}
			got := MustNewCluster(Config{Machines: k})
			if err := got.LoadBinary(bytes.NewReader(file)); err != nil {
				t.Fatal(err)
			}
			checkSameCells(t, got, want, true)
			checkStringIndexes(t, got, true)
			checkStringIndexes(t, want, true)
			if a, b := got.TotalMemoryBytes(), want.TotalMemoryBytes(); a != b {
				t.Fatalf("seed %d, %d machines: TotalMemoryBytes %d, want %d", seed, k, a, b)
			}
			if missing, extra := diffCrossTables(crossTable(got), crossTable(want)); len(missing)+len(extra) > 0 {
				t.Fatalf("seed %d, %d machines: cross-pair table lacks %d entries, has %d extra", seed, k, len(missing), len(extra))
			}
			checkSnapshotBytes(t, got)
			checkSnapshotBytes(t, want)
			// A posting list is cut to its size: the next vertex under a
			// label moves the list rather than overwriting its neighbour's.
			for _, name := range []string{"a", "b", "c", "d", "e"} {
				if _, err := got.AddNode(name); err != nil {
					t.Fatal(err)
				}
			}
			checkStringIndexes(t, got, false)
		}
	}
}

// TestLoadBinaryReachesLastID: a streamed load decodes every adjacency onto
// the 4-byte arena intact — neighbour IDs up to n − 1 included, in cells
// both in ID order and, above a lowered bound, in (label, id) order — as
// graph.ReadBinary reads the same file.
func TestLoadBinaryReachesLastID(t *testing.T) {
	lowerOrderBound(t, 8)
	g := loadTestGraph(4, 1<<16+1000) // the last ID needs 17 bits
	file := binaryOf(t, g)
	want, err := graph.ReadBinary(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	c := MustNewCluster(Config{Machines: 3})
	if err := c.LoadBinary(bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	last := graph.NodeID(want.NumNodes() - 1)
	lastInOrdered := false
	for v := graph.NodeID(0); v <= last; v++ {
		cell, ok := c.Cell(v)
		if !ok || cell.Label != want.Label(v) {
			t.Fatalf("vertex %d: Cell = %+v, %v; want label %d", v, cell, ok, want.Label(v))
		}
		wantN := inCellOrder(want.Neighbors(v), want.Label)
		if got := wide(cell.Neighbors); !slices.Equal(got, wantN) {
			t.Fatalf("vertex %d (label-ordered %v): neighbours %v, want %v", v, cell.LabelOrdered(), got, wantN)
		}
		if cell.LabelOrdered() && slices.Contains(wantN, last) {
			lastInOrdered = true
		}
	}
	if !lastInOrdered {
		t.Fatalf("no label-ordered cell lists vertex %d", last)
	}
}

// allocatedBy reports the bytes load allocates on a fresh 4-machine cluster.
func allocatedBy(t *testing.T, load func(*Cluster) error) uint64 {
	t.Helper()
	c := MustNewCluster(Config{Machines: 4})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := load(c); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadBinaryHoldsNoGraphCopy: loading from bytes allocates what loading
// the graph from memory does, plus the decoder's read buffer and its label
// table — no per-vertex or per-edge transient, so never a graph.Graph.
func TestLoadBinaryHoldsNoGraphCopy(t *testing.T) {
	for _, scale := range []int{10, 16} {
		g := rmat.MustGenerate(rmat.Params{Scale: scale, AvgDegree: 8, NumLabels: 64, Seed: 3})
		file := binaryOf(t, g)
		inMemory := allocatedBy(t, func(c *Cluster) error { return c.LoadGraph(g) })
		streamed := allocatedBy(t, func(c *Cluster) error { return c.LoadBinary(bytes.NewReader(file)) })
		const budget = 1<<20 + 64<<10 // the read buffer, then the label table and small change
		extra := int64(streamed) - int64(inMemory)
		t.Logf("scale %d: LoadBinary allocated %d bytes, LoadGraph %d", scale, streamed, inMemory)
		if extra > budget {
			t.Errorf("scale %d (%d vertices, %d adjacency entries): LoadBinary allocated %d bytes, LoadGraph %d: %d more, budget %d",
				scale, g.NumNodes(), g.NumEdges(), streamed, inMemory, extra, budget)
		}
	}
}

// unnamedLabelFile is a 2-vertex graph file whose first vertex carries label
// 7 of a 1-label table.
func unnamedLabelFile(t testing.TB) []byte {
	b := graph.NewBuilder(graph.Undirected())
	b.AddNode("a")
	b.AddNode("a")
	b.MustAddEdge(0, 1)
	file := binaryOf(t, b.Build())
	const labelsAt = 4 + 4 + 4 + 8 + 8 + 4 + 4 + 1 // header, then the name "a"
	binary.LittleEndian.PutUint32(file[labelsAt:], 7)
	return file
}

// A label no name is given for is refused on either path: loaded, it
// would crash the next snapshot.
func TestLoadRejectsUnnamedLabel(t *testing.T) {
	if err := MustNewCluster(Config{Machines: 2}).LoadBinary(bytes.NewReader(unnamedLabelFile(t))); err == nil {
		t.Fatal("LoadBinary accepted label 7 of a 1-label table")
	}
	b := graph.NewBuilder(graph.Undirected())
	b.AddNode("a")
	b.AddNodeLabelID(7)
	b.MustAddEdge(0, 1)
	if err := MustNewCluster(Config{Machines: 2}).LoadGraph(b.Build()); err == nil {
		t.Fatal("LoadGraph accepted label 7 of a 1-label table")
	}
}

// unlabelledPair is two vertices joined by one edge, the second unlabelled.
func unlabelledPair() *graph.Graph {
	b := graph.NewBuilder(graph.Undirected())
	b.AddNode("a")
	b.AddNodeLabelID(graph.NoLabel)
	b.MustAddEdge(0, 1)
	return b.Build()
}

// An unlabelled vertex is written as NoLabel and reloads unlabelled.
func TestSnapshotKeepsUnlabelledVertex(t *testing.T) {
	c := MustNewCluster(Config{Machines: 2})
	if err := c.LoadGraph(unlabelledPair()); err != nil {
		t.Fatal(err)
	}
	checkSnapshotBytes(t, c)
	var snap bytes.Buffer
	if err := c.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	c2 := MustNewCluster(Config{Machines: 2})
	if err := c2.LoadBinary(&snap); err != nil {
		t.Fatal(err)
	}
	checkSameCells(t, c2, c, true)
	if cell, _ := c2.Cell(1); cell.Label != graph.NoLabel {
		t.Fatalf("vertex 1 reloaded with label %d, want NoLabel", cell.Label)
	}
}

// FuzzLoadBinary: any bytes either load or are refused with an error, and
// whatever loads survives a snapshot and a reload with the same cells.
func FuzzLoadBinary(f *testing.F) {
	for _, g := range []*graph.Graph{unlabelledPair(), loadTestGraph(3, 40)} {
		c := MustNewCluster(Config{Machines: 3})
		if err := c.LoadGraph(g); err != nil {
			f.Fatal(err)
		}
		var snap bytes.Buffer
		if err := c.WriteSnapshot(&snap); err != nil {
			f.Fatal(err)
		}
		f.Add(snap.Bytes())
	}
	f.Add(unnamedLabelFile(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := MustNewCluster(Config{Machines: 3})
		if err := c.LoadBinary(bytes.NewReader(data)); err != nil {
			return
		}
		var snap bytes.Buffer
		if err := c.WriteSnapshot(&snap); err != nil {
			t.Fatalf("snapshot of a loaded cluster: %v", err)
		}
		c2 := MustNewCluster(Config{Machines: 3})
		if err := c2.LoadBinary(&snap); err != nil {
			t.Fatalf("reloading the snapshot: %v", err)
		}
		checkSameCells(t, c2, c, false)
	})
}
