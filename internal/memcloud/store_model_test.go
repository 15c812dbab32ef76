package memcloud

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// Model-based test of the store on generated inputs: a byte string decodes
// into an interleaving of AddNode / AddEdge / RemoveEdge / CompactAll /
// ApplyBatch — including operands that do not exist — which drives two
// identically configured clusters and a plain map model side by side. After
// every step every read path must agree with the model, the cross-pair
// table must hold every machine pair the model's edges join, and the two
// clusters must stay bit for bit the same. TestStoreModelGenerated feeds the
// driver seeded random bytes under every partitioner and cluster size;
// FuzzStoreOps feeds it whatever the fuzzer finds.

// modelCell is what the model knows about one vertex.
type modelCell struct {
	label string
	nbrs  []graph.NodeID // sorted ascending
}

type storeModel map[graph.NodeID]*modelCell

func (m storeModel) exists(v graph.NodeID) bool { return m[v] != nil }

func (m storeModel) hasEdge(u, v graph.NodeID) bool {
	_, found := slices.BinarySearch(m[u].nbrs, v)
	return found
}

// apply folds one mutation into the model and reports whether the cluster
// must accept it.
func (m storeModel) apply(mut Mutation) bool {
	switch mut.Op {
	case MutAddNode:
		m[graph.NodeID(len(m))] = &modelCell{label: mut.Label}
		return true
	case MutAddEdge:
		if mut.U == mut.V || !m.exists(mut.U) || !m.exists(mut.V) || m.hasEdge(mut.U, mut.V) {
			return false
		}
		for _, e := range [][2]graph.NodeID{{mut.U, mut.V}, {mut.V, mut.U}} {
			c := m[e[0]]
			at, _ := slices.BinarySearch(c.nbrs, e[1])
			c.nbrs = slices.Insert(c.nbrs, at, e[1])
		}
		return true
	case MutRemoveEdge:
		if !m.exists(mut.U) || !m.exists(mut.V) || !m.hasEdge(mut.U, mut.V) {
			return false
		}
		for _, e := range [][2]graph.NodeID{{mut.U, mut.V}, {mut.V, mut.U}} {
			c := m[e[0]]
			at, _ := slices.BinarySearch(c.nbrs, e[1])
			c.nbrs = slices.Delete(c.nbrs, at, at+1)
		}
		return true
	}
	panic("unreachable")
}

// storeModelLabels are the labels AddNode draws from: the seed graph's
// three plus one the cluster's label table has never seen.
var storeModelLabels = []string{rmat.LabelName(0), rmat.LabelName(1), rmat.LabelName(2), "fresh"}

// maxModelNodes keeps the per-step verification cheap.
const maxModelNodes = 48

var partitionerKinds = []string{"hash", "range", "bfs"}

func modelPartitioner(kind string, g *graph.Graph, k int) Partitioner {
	switch kind {
	case "hash":
		return HashPartitioner{K: k}
	case "range":
		return RangePartitioner{K: k, N: g.NumNodes()}
	case "bfs":
		return NewBFSPartitioner(g, k)
	}
	panic("unknown partitioner " + kind)
}

func modelCluster(t *testing.T, kind string, g *graph.Graph, k int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Machines: k, Partitioner: modelPartitioner(kind, g, k)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	return c
}

// opReader decodes operands from the input bytes; an exhausted input reads
// as zeros and ends the run.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) done() bool { return r.pos >= len(r.data) }

func (r *opReader) next() int {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// vertex picks an operand: mostly an existing vertex, sometimes one of the
// three IDs that must be refused — the next unassigned ID, a negative one,
// and one far outside the table.
func (r *opReader) vertex(m storeModel) graph.NodeID {
	n := len(m)
	switch v := r.next() % (n + 3); v {
	case n + 1:
		return -1
	case n + 2:
		return math.MaxInt64
	default:
		return graph.NodeID(v) // v == n: the next unassigned ID
	}
}

// mutation decodes the operands of one AddNode (kind 0), AddEdge (1–3) or
// RemoveEdge (4–5).
func (r *opReader) mutation(m storeModel, kind int) Mutation {
	switch {
	case kind == 0 && len(m) < maxModelNodes:
		return Mutation{Op: MutAddNode, Label: storeModelLabels[r.next()%len(storeModelLabels)]}
	case kind <= 3:
		return Mutation{Op: MutAddEdge, U: r.vertex(m), V: r.vertex(m)}
	default:
		u := r.vertex(m)
		// Half the removals aim at an edge that exists.
		if c := m[u]; c != nil && len(c.nbrs) > 0 && r.next()%2 == 0 {
			return Mutation{Op: MutRemoveEdge, U: u, V: c.nbrs[r.next()%len(c.nbrs)]}
		}
		return Mutation{Op: MutRemoveEdge, U: u, V: r.vertex(m)}
	}
}

// runStoreOps is the driver shared by the generated tests and the fuzz
// target. It returns how many steps compacted an arena on their own, as an
// insertion does instead of growing a full arena that holds enough garbage.
func runStoreOps(t *testing.T, kind string, machines int, data []byte) (insertCompactions int) {
	t.Helper()
	g := rmat.MustGenerate(rmat.Params{Scale: 4, AvgDegree: 3, NumLabels: 3, Seed: 11})
	model := storeModel{}
	for v := int64(0); v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		model[id] = &modelCell{label: g.LabelString(id), nbrs: slices.Clone(g.Neighbors(id))}
		slices.Sort(model[id].nbrs)
	}
	a, b := modelCluster(t, kind, g, machines), modelCluster(t, kind, g, machines)
	checkCrossPairs(t, -1, "loaded", a, model, true)
	owners := map[graph.NodeID]int{} // placement is decided once per vertex
	var applied uint64

	applyOne := func(step int, mut Mutation) {
		want := graph.NodeID(len(model))
		ok := model.apply(mut)
		if ok {
			applied++
		}
		for _, c := range []*Cluster{a, b} {
			var id graph.NodeID
			var err error
			switch mut.Op {
			case MutAddNode:
				id, err = c.AddNode(mut.Label)
			case MutAddEdge:
				err = c.AddEdge(mut.U, mut.V)
			case MutRemoveEdge:
				err = c.RemoveEdge(mut.U, mut.V)
			}
			if (err == nil) != ok {
				t.Fatalf("step %d: %v(%d,%d): err = %v, model accepts: %v", step, mut.Op, mut.U, mut.V, err, ok)
			}
			if mut.Op == MutAddNode && id != want {
				t.Fatalf("step %d: AddNode returned %d, want %d", step, id, want)
			}
			if mut.Op == MutAddEdge && ok {
				checkEdgeCrossed(t, step, c, model, mut.U, mut.V)
			}
		}
	}

	r := &opReader{data: data}
	for step := 0; !r.done() && step < 256; step++ {
		garbage := a.UpdateStats().GarbageWords
		k := r.next() % 8
		switch k {
		case 6:
			ra, rb := a.CompactAll(), b.CompactAll()
			if ra != rb {
				t.Fatalf("step %d: CompactAll reclaimed %d on one cluster, %d on its twin", step, ra, rb)
			}
			checkCompacted(t, step, a, model)
		case 7:
			muts := make([]Mutation, 1+r.next()%4)
			accept := make([]bool, len(muts))
			wantIDs := make([]graph.NodeID, len(muts))
			for i := range muts {
				muts[i] = r.mutation(model, r.next()%6)
				wantIDs[i] = graph.InvalidNode
				if muts[i].Op == MutAddNode {
					wantIDs[i] = graph.NodeID(len(model))
				}
				if accept[i] = model.apply(muts[i]); accept[i] {
					applied++
				}
			}
			for _, c := range []*Cluster{a, b} {
				for i, res := range c.ApplyBatch(muts) {
					if (res.Err == nil) != accept[i] {
						t.Fatalf("step %d: batch[%d] %v(%d,%d): err = %v, model accepts: %v",
							step, i, muts[i].Op, muts[i].U, muts[i].V, res.Err, accept[i])
					}
					if res.NodeID != wantIDs[i] {
						t.Fatalf("step %d: batch[%d] NodeID = %d, want %d", step, i, res.NodeID, wantIDs[i])
					}
					if muts[i].Op == MutAddEdge && accept[i] {
						checkEdgeCrossed(t, step, c, model, muts[i].U, muts[i].V)
					}
				}
			}
		default:
			applyOne(step, r.mutation(model, k))
		}
		if a.Epoch() != applied || b.Epoch() != applied {
			t.Fatalf("step %d: epochs %d / %d after %d applied mutations", step, a.Epoch(), b.Epoch(), applied)
		}
		if k != 6 && a.UpdateStats().GarbageWords < garbage {
			insertCompactions++ // only a compaction takes garbage away
		}
		checkAgainstModel(t, step, a, model, owners)
		checkCrossPairs(t, step, "updated", a, model, false)
		checkTwins(t, step, a, b)
		checkSnapshotRoundTrip(t, step, kind, a, model)
	}

	// Compaction lays cells out in slot order, a function of the update
	// history alone: the twins end with identical arenas.
	a.CompactAll()
	b.CompactAll()
	checkCompacted(t, -1, a, model)
	checkAgainstModel(t, -1, a, model, owners)
	checkTwins(t, -1, a, b)
	return insertCompactions
}

// cellOrder returns the model's neighbours of v in the order c's cell must
// hold them. Labels are compared as c's label IDs, which are private to a
// cluster's table: a reloaded snapshot may number them differently.
func cellOrder(c *Cluster, model storeModel, v graph.NodeID) []graph.NodeID {
	return inCellOrder(model[v].nbrs, func(w graph.NodeID) graph.LabelID {
		l, _ := c.Labels().Lookup(model[w].label)
		return l
	})
}

// checkCell compares one loaded cell with the model, by label name: the
// label, the neighbours in the cell's order, and the count of them on the
// vertex's machine.
func checkCell(t *testing.T, step int, what string, c *Cluster, cell Cell, v graph.NodeID, model storeModel) {
	t.Helper()
	want := model[v]
	nbrs := cellOrder(c, model, v)
	if cell.ID != v || c.Labels().Name(cell.Label) != want.label || !slices.Equal(wide(cell.Neighbors), nbrs) {
		t.Fatalf("step %d: %s(%d) = {%d %q %v}, model has {%q %v}", step, what, v,
			cell.ID, c.Labels().Name(cell.Label), cell.Neighbors, want.label, nbrs)
	}
	if local := localCount(c, v, nbrs); cell.local != local {
		t.Fatalf("step %d: %s(%d) counts %d local neighbours, the model %d", step, what, v, cell.local, local)
	}
}

// modelCharge is what a label batch from machine from owes for the cells of
// vs: one message per remote owner, one word per neighbour it holds.
func modelCharge(c *Cluster, model storeModel, from int, vs ...graph.NodeID) NetStats {
	words := make([]int, c.NumMachines())
	for _, v := range vs {
		for _, w := range model[v].nbrs {
			words[c.Owner(w)]++
		}
	}
	var cost NetStats
	for owner, n := range words {
		if owner != from && n > 0 {
			cost.Add(NetStats{Messages: 1, Bytes: payloadSize(1, n)})
		}
	}
	return cost
}

// checkAgainstModel reads the whole graph back through every read path,
// from every machine, and checks what each label batch charged.
func checkAgainstModel(t *testing.T, step int, c *Cluster, model storeModel, owners map[graph.NodeID]int) {
	t.Helper()
	n := graph.NodeID(len(model))
	if c.NumNodes() != int64(n) {
		t.Fatalf("step %d: NumNodes = %d, model has %d", step, c.NumNodes(), n)
	}
	var local int64
	for i := 0; i < c.NumMachines(); i++ {
		local += c.Machine(i).NumLocalNodes()
	}
	if local != int64(n) {
		t.Fatalf("step %d: machines hold %d vertices, model has %d", step, local, n)
	}
	if total, index := c.TotalMemoryBytes(), c.StringIndexBytes(); index <= 0 || total < index {
		t.Fatalf("step %d: TotalMemoryBytes = %d, StringIndexBytes = %d", step, total, index)
	}
	// The two address tables cover every vertex, and each entry agrees
	// with the model: the tag names the machine the vertex's cell is on and
	// its label, the slot finds that cell in the owner's directory.
	if len(c.tags) != int(n) || len(c.slots) != int(n) {
		t.Fatalf("step %d: address tables hold %d tags and %d slots for %d vertices", step, len(c.tags), len(c.slots), n)
	}
	for v := graph.NodeID(0); v < n; v++ {
		want, tag := model[v], c.tags[v]
		if first, seen := owners[v]; seen && first != tag.owner() {
			t.Fatalf("step %d: tag of vertex %d names machine %d, it was placed on %d", step, v, tag.owner(), first)
		}
		if c.Labels().Name(tag.label()) != want.label {
			t.Fatalf("step %d: tag of vertex %d holds label %q, model has %q", step, v, c.Labels().Name(tag.label()), want.label)
		}
		if nbrs, wantNbrs := wide(c.machines[tag.owner()].store.neighbors(c.slots[v])), cellOrder(c, model, v); !slices.Equal(nbrs, wantNbrs) {
			t.Fatalf("step %d: slot of vertex %d finds %v on machine %d, model has %v", step, v, nbrs, tag.owner(), wantNbrs)
		}
	}
	// Each store's garbage count is exact: the arena words no cell covers.
	for i, m := range c.machines {
		covered := int64(0)
		for _, ref := range m.store.dir {
			covered += int64(ref.deg)
		}
		if m.store.garbage != int64(len(m.store.arena))-covered {
			t.Fatalf("step %d: machine %d counts %d garbage words, its arena holds %d words of which cells cover %d",
				step, i, m.store.garbage, len(m.store.arena), covered)
		}
	}
	missing := []graph.NodeID{-1, n, math.MaxInt64}
	for _, v := range missing {
		if c.Owner(v) != -1 {
			t.Fatalf("step %d: Owner(%d) = %d for a vertex that does not exist", step, v, c.Owner(v))
		}
	}

	// The batch asks for every vertex, with the three IDs that do not exist
	// in between.
	ids := make([]graph.NodeID, 0, len(model)+len(missing))
	for v := graph.NodeID(0); v < n; v++ {
		ids = append(ids, v)
		if int(v) < len(missing) {
			ids = append(ids, missing[v])
		}
	}
	for from := 0; from < c.NumMachines(); from++ {
		m := c.Machine(from)
		var own []graph.NodeID
		for v := graph.NodeID(0); v < n; v++ {
			want := model[v]
			owner := c.Owner(v)
			if owner < 0 || owner >= c.NumMachines() {
				t.Fatalf("step %d: Owner(%d) = %d", step, v, owner)
			}
			if first, seen := owners[v]; seen && first != owner {
				t.Fatalf("step %d: vertex %d moved from machine %d to %d", step, v, first, owner)
			}
			owners[v] = owner

			cell, ok := c.Cell(v)
			if !ok {
				t.Fatalf("step %d: Cell(%d) not found", step, v)
			}
			checkCell(t, step, "Cell", c, cell, v, model)

			local, ok := m.LoadLocal(v)
			if ok != (owner == from) || m.Owns(v) != ok {
				t.Fatalf("step %d: machine %d LoadLocal(%d) ok=%v Owns=%v, owner is %d", step, from, v, ok, m.Owns(v), owner)
			}
			if ok {
				checkCell(t, step, "LoadLocal", c, local, v, model)
				own = append(own, v)
				// A cell alone costs one message per remote owner of its
				// neighbours.
				if got, want := chargeFrom(c, from, v), modelCharge(c, model, from, v); got != want {
					t.Fatalf("step %d: LabelBatch from %d charged %v for the cell of %d, want %v", step, from, got, v, want)
				}
			}
			labels, cost := resolveFrom(c, from, []graph.NodeID{v})
			if c.Labels().Name(labels[0]) != want.label {
				t.Fatalf("step %d: LabelBatch from %d resolved %d to %q, model has %q", step, from, v, c.Labels().Name(labels[0]), want.label)
			}
			if cost != (NetStats{}) {
				t.Fatalf("step %d: LabelBatch from %d charged %v for reading the label of %d", step, from, cost, v)
			}
		}

		labels, got := resolveFrom(c, from, ids)
		if len(labels) != len(ids) {
			t.Fatalf("step %d: LabelBatch returned %d labels for %d IDs", step, len(labels), len(ids))
		}
		for i, v := range ids {
			if want := model[v]; want == nil {
				if labels[i] != graph.NoLabel {
					t.Fatalf("step %d: LabelBatch gave label %d to missing vertex %d", step, labels[i], v)
				}
			} else if c.Labels().Name(labels[i]) != want.label {
				t.Fatalf("step %d: LabelBatch resolved %d to %q, model has %q", step, v, c.Labels().Name(labels[i]), want.label)
			}
		}
		if got != (NetStats{}) {
			t.Fatalf("step %d: LabelBatch from %d charged %v for reading labels", step, from, got)
		}
		// Every cell of the machine in one batch: still one message per
		// remote owner, carrying the words of all the cells.
		if got, want := chargeFrom(c, from, own...), modelCharge(c, model, from, own...); got != want {
			t.Fatalf("step %d: LabelBatch from %d charged %v for its %d cells, want %v", step, from, got, len(own), want)
		}

		// Reads of vertices that do not exist find nothing; the batch above
		// resolved them to NoLabel at no cost.
		for _, v := range missing {
			if _, ok := c.Cell(v); ok {
				t.Fatalf("step %d: Cell(%d) found a vertex", step, v)
			}
			if _, ok := m.LoadLocal(v); ok || m.Owns(v) {
				t.Fatalf("step %d: machine %d claims missing vertex %d", step, from, v)
			}
		}
	}
}

// checkTwins requires two identically driven clusters to hold identical
// address tables, directories and arenas.
func checkTwins(t *testing.T, step int, a, b *Cluster) {
	t.Helper()
	if !slices.Equal(a.tags, b.tags) || !slices.Equal(a.slots, b.slots) {
		t.Fatalf("step %d: address tables differ", step)
	}
	for i := range a.machines {
		sa, sb := a.machines[i].store, b.machines[i].store
		if !slices.Equal(sa.dir, sb.dir) || !slices.Equal(sa.arena, sb.arena) {
			t.Fatalf("step %d: machine %d stores differ:\n dir %v\n     %v\n arena %v\n       %v",
				step, i, sa.dir, sb.dir, sa.arena, sb.arena)
		}
	}
}

// checkCompacted requires every arena to hold exactly its live cells.
func checkCompacted(t *testing.T, step int, c *Cluster, model storeModel) {
	t.Helper()
	live := make([]int, c.NumMachines())
	for v, cell := range model {
		live[c.Owner(v)] += len(cell.nbrs)
	}
	for i, m := range c.machines {
		if len(m.store.arena) != live[i] {
			t.Fatalf("step %d: machine %d arena holds %d words after compaction, %d live", step, i, len(m.store.arena), live[i])
		}
	}
	if g := c.UpdateStats().GarbageWords; g != 0 {
		t.Fatalf("step %d: %d garbage words after compaction", step, g)
	}
}

// checkSnapshotRoundTrip renders the cluster back into a graph, loads it
// onto a fresh cluster of the same shape, and reads the model out of that.
func checkSnapshotRoundTrip(t *testing.T, step int, kind string, c *Cluster, model storeModel) {
	t.Helper()
	checkSnapshotBytes(t, c)
	snap, err := snapshotGraph(c)
	if err != nil {
		t.Fatalf("step %d: WriteSnapshot: %v", step, err)
	}
	fresh := modelCluster(t, kind, snap, c.NumMachines())
	if fresh.NumNodes() != int64(len(model)) {
		t.Fatalf("step %d: snapshot has %d vertices, model %d", step, fresh.NumNodes(), len(model))
	}
	for v := range model {
		cell, ok := fresh.Cell(v)
		if !ok {
			t.Fatalf("step %d: vertex %d lost in the snapshot", step, v)
		}
		checkCell(t, step, "reloaded snapshot", fresh, cell, v, model)
	}
	checkCrossPairs(t, step, "reloaded snapshot", fresh, model, true)
}

// checkCrossPairs compares c's cross-pair table with one recomputed from
// the model's edges by brute force: equal if exact, else a superset, since
// RemoveEdge leaves stale bits.
func checkCrossPairs(t *testing.T, step int, what string, c *Cluster, model storeModel, exact bool) {
	t.Helper()
	want := bruteCrossTable(c, int64(len(model)),
		func(v graph.NodeID) string { return model[v].label },
		func(v graph.NodeID) []graph.NodeID { return model[v].nbrs })
	if missing, extra := diffCrossTables(crossTable(c), want); len(missing) > 0 || exact && len(extra) > 0 {
		t.Fatalf("step %d: %s cross-pair table lacks %v and holds %v beyond the model (exact: %v)", step, what, missing, extra, exact)
	}
}

// checkEdgeCrossed requires the machine pair of the edge just added between
// u and v to read back through CrossAdj at once, if it joins two machines.
func checkEdgeCrossed(t *testing.T, step int, c *Cluster, model storeModel, u, v graph.NodeID) {
	t.Helper()
	i, j := c.Owner(u), c.Owner(v)
	if i == j {
		return
	}
	lu, _ := c.Labels().Lookup(model[u].label)
	lv, _ := c.Labels().Lookup(model[v].label)
	if adj := crossAdj(c, lu, lv); adj[i]&(1<<j) == 0 || adj[j]&(1<<i) == 0 {
		t.Fatalf("step %d: AddEdge(%d, %d) joins machines %d and %d, CrossAdj reads %b", step, u, v, i, j, adj)
	}
}

// modelOrderBounds are the label-order bounds the model test runs at: the
// real one, which no cell of these small graphs reaches, and one the
// generated ops cross both ways.
var modelOrderBounds = []int{labelOrderBound, 3}

// runStoreOpsAtBounds runs the driver once at each of modelOrderBounds.
func runStoreOpsAtBounds(t *testing.T, kind string, machines int, data []byte) (insertCompactions int) {
	t.Helper()
	for _, bound := range modelOrderBounds {
		lowerOrderBound(t, bound)
		insertCompactions += runStoreOps(t, kind, machines, data)
	}
	return insertCompactions
}

// runStoreModelGenerated feeds the driver seeds seeded inputs under every
// partitioner and cluster size.
func runStoreModelGenerated(t *testing.T, seeds int64) (insertCompactions int) {
	for _, kind := range partitionerKinds {
		for _, machines := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/%d", kind, machines), func(t *testing.T) {
				for seed := int64(0); seed < seeds; seed++ {
					data := make([]byte, 240)
					rand.New(rand.NewSource(seed*31 + int64(machines))).Read(data)
					insertCompactions += runStoreOpsAtBounds(t, kind, machines, data)
				}
			})
		}
	}
	return insertCompactions
}

func TestStoreModelGenerated(t *testing.T) { runStoreModelGenerated(t, 4) }

// lowerCompactThreshold makes an insertion compact a full arena whenever
// it holds any garbage, in a test.
func lowerCompactThreshold(t *testing.T) {
	old := compactShare
	compactShare = math.MaxInt
	t.Cleanup(func() { compactShare = old })
}

// TestStoreModelCompacting runs the model with the compaction threshold
// lowered, so insertions compact arenas between every kind of step.
func TestStoreModelCompacting(t *testing.T) {
	lowerCompactThreshold(t)
	if n := runStoreModelGenerated(t, 2); n == 0 {
		t.Fatal("no insertion compacted an arena")
	}
}

// FuzzStoreOps lets the fuzzer write the interleaving: the first two bytes
// pick the partitioner and the cluster size, the rest are operations, run
// at each of modelOrderBounds.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 1, 0, 5, 6})                                // add a "fresh" vertex, an edge, compact
	f.Add([]byte{1, 1, 1, 2, 3, 1, 2, 3, 4, 2, 0, 0, 6, 4, 2, 0, 0})     // duplicate edge, remove it twice around a compaction
	f.Add([]byte{2, 2, 7, 3, 0, 3, 1, 16, 0, 1, 16, 17, 4, 16, 1, 6})    // a batch that adds a vertex and wires it up
	f.Add([]byte{0, 2, 1, 17, 18, 1, 16, 16, 4, 17, 0, 1, 3, 3, 6, 6})   // operands that do not exist, a self-loop
	f.Add([]byte{1, 2, 0, 0, 0, 1, 0, 2, 0, 3, 1, 16, 17, 1, 18, 19, 6}) // growth past the loaded range under RangePartitioner
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		kind := partitionerKinds[r.next()%len(partitionerKinds)]
		machines := []int{1, 3, 8}[r.next()%3]
		runStoreOpsAtBounds(t, kind, machines, data[r.pos:])
	})
}
