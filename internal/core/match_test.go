package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
)

// figure5Setup loads the paper's Figure 5-style graph on 3 machines with a
// predictable partition and returns the cluster.
func matchTestCluster(t *testing.T) (*memcloud.Cluster, *graph.Graph) {
	t.Helper()
	g := figure1Graph() // 0:a 1:a 2:b 3:c 4:d
	c := memcloud.MustNewCluster(memcloud.Config{
		Machines:    3,
		Partitioner: memcloud.RangePartitioner{K: 3, N: g.NumNodes()},
	})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	return c, g
}

func resolve(t *testing.T, c *memcloud.Cluster, q *Query) []graph.LabelID {
	t.Helper()
	labels, ok := q.resolveLabels(c.Labels())
	if !ok {
		t.Fatal("labels not resolvable")
	}
	return labels
}

func TestMatchSTwigAgainstPaperExample(t *testing.T) {
	// Query STwig q1 = (a, {b, c}) from §4.1 against Figure 1(a)'s graph:
	// both a1 and a2 are adjacent to b1 and c1.
	c, _ := matchTestCluster(t)
	q := MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {0, 2}})
	labels := resolve(t, c, q)
	twig := STwig{Root: 0, Leaves: []int{1, 2}}

	var all []STwigMatch
	for i := 0; i < c.NumMachines(); i++ {
		all = append(all, matchSTwigOnMachine(context.Background(), c.Machine(i), twig, labels, nil, restriction{ids: wholeIDSpace}, &machineScratch{})...)
	}
	if len(all) != 2 {
		t.Fatalf("got %d factored matches, want 2: %v", len(all), all)
	}
	for _, m := range all {
		if m.Root != 0 && m.Root != 1 {
			t.Fatalf("unexpected root %d", m.Root)
		}
		if len(m.LeafSets) != 2 || len(m.LeafSets[0]) != 1 || m.LeafSets[0][0] != 2 {
			t.Fatalf("b-leaf set wrong: %v", m.LeafSets)
		}
		if len(m.LeafSets[1]) != 1 || m.LeafSets[1][0] != 3 {
			t.Fatalf("c-leaf set wrong: %v", m.LeafSets)
		}
	}
}

func TestMatchSTwigRootsAreLocal(t *testing.T) {
	c, _ := matchTestCluster(t)
	q := MustNewQuery([]string{"b", "a"}, [][2]int{{0, 1}})
	labels := resolve(t, c, q)
	twig := STwig{Root: 0, Leaves: []int{1}}
	for i := 0; i < c.NumMachines(); i++ {
		for _, m := range matchSTwigOnMachine(context.Background(), c.Machine(i), twig, labels, nil, restriction{ids: wholeIDSpace}, &machineScratch{}) {
			if c.Owner(m.Root) != i {
				t.Fatalf("machine %d emitted non-local root %d", i, m.Root)
			}
		}
	}
}

func TestMatchSTwigRespectsBindings(t *testing.T) {
	c, _ := matchTestCluster(t)
	q := MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {0, 2}})
	labels := resolve(t, c, q)
	twig := STwig{Root: 0, Leaves: []int{1, 2}}

	b := NewBindings(3, 5)
	b.SetIDs(0, []graph.NodeID{1}) // only a2 allowed as root

	var all []STwigMatch
	for i := 0; i < c.NumMachines(); i++ {
		all = append(all, matchSTwigOnMachine(context.Background(), c.Machine(i), twig, labels, b, restriction{ids: wholeIDSpace}, &machineScratch{})...)
	}
	if len(all) != 1 || all[0].Root != 1 {
		t.Fatalf("binding filter on root ignored: %v", all)
	}

	// Empty leaf binding kills all matches.
	b2 := NewBindings(3, 5)
	b2.SetIDs(1, nil)
	all = nil
	for i := 0; i < c.NumMachines(); i++ {
		all = append(all, matchSTwigOnMachine(context.Background(), c.Machine(i), twig, labels, b2, restriction{ids: wholeIDSpace}, &machineScratch{})...)
	}
	if len(all) != 0 {
		t.Fatalf("empty leaf binding produced matches: %v", all)
	}
}

func TestMatchSTwigExcludesRootFromLeaves(t *testing.T) {
	// Query x-x on a graph with an x-x edge: the leaf set for a given root
	// must not contain the root itself.
	g := graph.MustFromEdges([]string{"x", "x"}, [][2]int64{{0, 1}}, graph.Undirected())
	c := memcloud.MustNewCluster(memcloud.Config{Machines: 1})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	q := MustNewQuery([]string{"x", "x"}, [][2]int{{0, 1}})
	labels := resolve(t, c, q)
	twig := STwig{Root: 0, Leaves: []int{1}}
	ms := matchSTwigOnMachine(context.Background(), c.Machine(0), twig, labels, nil, restriction{ids: wholeIDSpace}, &machineScratch{})
	if len(ms) != 2 {
		t.Fatalf("want 2 matches (each vertex as root), got %v", ms)
	}
	for _, m := range ms {
		for _, leaf := range m.LeafSets[0] {
			if leaf == m.Root {
				t.Fatalf("root %d appears in its own leaf set", m.Root)
			}
		}
	}
}

// A neighbour whose label two leaves share is a candidate of both, and each
// leaf's binding filters its own set.
func TestMatchSTwigSharedLeafLabel(t *testing.T) {
	// 0:a 1:b 2:b 3:c 4:b — 4 is a b, but not 0's neighbour.
	g := graph.MustFromEdges([]string{"a", "b", "b", "c", "b"},
		[][2]int64{{0, 1}, {0, 2}, {0, 3}, {3, 4}}, graph.Undirected())
	c := memcloud.MustNewCluster(memcloud.Config{Machines: 2})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	q := MustNewQuery([]string{"a", "b", "b", "c"}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	labels := resolve(t, c, q)
	twig := STwig{Root: 0, Leaves: []int{1, 2, 3}}
	run := func(b *Bindings) []STwigMatch {
		var all []STwigMatch
		for i := 0; i < c.NumMachines(); i++ {
			all = append(all, matchSTwigOnMachine(context.Background(), c.Machine(i), twig, labels, b, restriction{ids: wholeIDSpace}, &machineScratch{})...)
		}
		return all
	}

	want := [][]graph.NodeID{{1, 2}, {1, 2}, {3}}
	if all := run(nil); len(all) != 1 || all[0].Root != 0 || !reflect.DeepEqual(all[0].LeafSets, want) {
		t.Fatalf("got %v, want root 0 with leaf sets %v", all, want)
	}
	b := NewBindings(4, g.NumNodes())
	b.SetIDs(2, []graph.NodeID{2, 4})
	want = [][]graph.NodeID{{1, 2}, {2}, {3}}
	if all := run(b); len(all) != 1 || !reflect.DeepEqual(all[0].LeafSets, want) {
		t.Fatalf("with H_2 = {2, 4}: got %v, want leaf sets %v", all, want)
	}
}

// A step reads each neighbour's label once, however many leaves ask about
// it: it charges exactly one word per neighbour of every root that passed
// the root filters (the slice and H_root), matched or not, in one message
// per remote owner.
//
// A hub root's cell is label-ordered, and the step finds its leaves by
// binary search, reading few of its neighbours' labels; it is charged for
// every neighbour all the same.
func TestMatchSTwigChargesOneLabelReadPerNeighbour(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 11, AvgDegree: 8, NumLabels: 4, Seed: 7})
	hub := graph.NodeID(g.NumNodes() / 2) // inside the slice below, and even
	for g.Label(hub) != 0 {
		hub += 2
	}
	g = withHub(g, hub)
	c := memcloud.MustNewCluster(memcloud.Config{Machines: 3})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	if cell, _ := c.Cell(hub); !cell.LabelOrdered() {
		t.Fatalf("hub %d of degree %d is not label-ordered", hub, len(cell.Neighbors))
	}
	l := rmat.LabelName
	// Two leaves share a label, so a read per leaf would charge more.
	q := MustNewQuery([]string{l(0), l(1), l(1), l(2)}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	labels := resolve(t, c, q)
	twig := STwig{Root: 0, Leaves: []int{1, 2, 3}}
	n := g.NumNodes()
	cut := restriction{vertex: 0, ids: idRange{lo: graph.NodeID(n / 4), hi: graph.NodeID(3 * n / 4)}}
	b := NewBindings(4, n)
	var evenRoots []graph.NodeID
	for v := graph.NodeID(0); v < graph.NodeID(n); v += 2 {
		evenRoots = append(evenRoots, v)
	}
	b.SetIDs(0, evenRoots)

	matched := 0
	for i := 0; i < c.NumMachines(); i++ {
		m := c.Machine(i)
		words := make([]int, c.NumMachines())
		roots := 0
		for _, r := range m.LocalIDs(labels[0]) {
			if !cut.ids.contains(r) || !b.Allows(0, r) {
				continue
			}
			roots++
			cell, _ := c.Cell(r)
			for _, nb := range cell.Neighbors {
				words[c.Owner(graph.NodeID(nb))]++
			}
		}
		var want memcloud.NetStats
		for owner, w := range words {
			if owner != i && w > 0 {
				c.ShipWords(&want, i, owner, w)
			}
		}
		ms := &machineScratch{}
		matched += len(matchSTwigOnMachine(context.Background(), m, twig, labels, b, cut, ms))
		if roots == 0 || ms.net != want {
			t.Fatalf("machine %d, %d roots: step charged %v, want %v", i, roots, ms.net, want)
		}
	}
	if matched == 0 {
		t.Fatal("no root matched: the fixture does not exercise the leaves")
	}
}

// withHub returns g with vertex hub joined to every other vertex, label IDs
// kept: on a graph of more than 1025 vertices, the hub's cell is
// label-ordered.
func withHub(g *graph.Graph, hub graph.NodeID) *graph.Graph {
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	for _, name := range g.Labels().Names() {
		b.Labels().Intern(name)
	}
	n := graph.NodeID(g.NumNodes())
	for v := graph.NodeID(0); v < n; v++ {
		b.AddNodeLabelID(g.Label(v))
	}
	for v := graph.NodeID(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				b.MustAddEdge(v, w)
			}
		}
		if v != hub {
			b.MustAddEdge(hub, v)
		}
	}
	return b.Build()
}

// scanSTwig is Algorithm 1 by the letter, on one machine: every neighbour
// of every root, in ID order, is checked against every leaf. It is what
// matchSTwigOnMachine must return whatever order a root's cell is in.
func scanSTwig(c *memcloud.Cluster, m *memcloud.Machine, t STwig, labels []graph.LabelID, b *Bindings, cut restriction) []STwigMatch {
	var out []STwigMatch
	for _, n := range m.LocalIDs(labels[t.Root]) {
		if !cut.rangeOf(t.Root).contains(n) || (b != nil && !b.Allows(t.Root, n)) {
			continue
		}
		cell, _ := c.Cell(n)
		nbrs := slices.Sorted(slices.Values(cell.Neighbors))
		sets := make([][]graph.NodeID, len(t.Leaves))
		for i, v := range t.Leaves {
			for _, w := range nbrs {
				nb := graph.NodeID(w)
				if labelOf(c, nb) == labels[v] && nb != n &&
					cut.rangeOf(v).contains(nb) && (b == nil || b.Allows(v, nb)) {
					sets[i] = append(sets[i], nb)
				}
			}
		}
		if slices.ContainsFunc(sets, func(s []graph.NodeID) bool { return len(s) == 0 }) ||
			(len(sets) > 1 && !injectivelySatisfiable(sets)) {
			continue
		}
		out = append(out, STwigMatch{Root: n, LeafSets: sets})
	}
	return out
}

func labelOf(c *memcloud.Cluster, v graph.NodeID) graph.LabelID {
	cell, _ := c.Cell(v)
	return cell.Label
}

// A hub's leaf candidates come from binary searches over its label-ordered
// cell: they must be exactly what a scan finds, for a leaf label first,
// last and absent in the hub's order, for two leaves sharing a label, under
// a slice restriction on a leaf or on the root, and under bindings.
func TestMatchSTwigHubRunsEqualTheScan(t *testing.T) {
	// Labels in ID order h a b c d e. Vertex 0 is the hub, labelled h and
	// joined to 1..1199, whose labels cycle through h a b d e: the hub's
	// cell is h-run first, e-run last, and no c. Vertices 1..1199 form a
	// path, so the other roots have small ID-ordered cells; vertex 1200,
	// the graph's one c, hangs off vertex 3.
	names := []string{"h", "a", "b", "c", "d", "e"}
	cycle := []string{"h", "a", "b", "d", "e"}
	b := graph.NewBuilder(graph.Undirected())
	for _, name := range names {
		b.Labels().Intern(name)
	}
	b.AddNode("h")
	for v := 1; v < 1200; v++ {
		b.AddNode(cycle[v%len(cycle)])
		b.MustAddEdge(0, graph.NodeID(v))
		if v > 1 {
			b.MustAddEdge(graph.NodeID(v-1), graph.NodeID(v))
		}
	}
	b.AddNode("c")
	b.MustAddEdge(3, 1200)
	g := b.Build()
	c := memcloud.MustNewCluster(memcloud.Config{Machines: 3})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	hub, _ := c.Cell(0)
	if !hub.LabelOrdered() {
		t.Fatalf("hub of degree %d is not label-ordered", len(hub.Neighbors))
	}
	lab := func(ls ...string) []graph.LabelID {
		out := make([]graph.LabelID, len(ls))
		for i, name := range ls {
			out[i] = c.Labels().MustLookup(name)
		}
		return out
	}
	twigs := []struct {
		name     string
		labels   []graph.LabelID // the root's, then each leaf's
		hubMatch bool            // whether the hub is a root of the unrestricted answer
	}{
		{"first label", lab("h", "h"), true},
		{"last label", lab("h", "e"), true},
		{"absent label", lab("h", "c"), false},
		{"shared label", lab("h", "b", "b"), true},
		{"three leaves", lab("h", "a", "d", "e"), true},
		{"absent among present", lab("h", "a", "c", "e"), false},
	}
	n := g.NumNodes()
	everyThird := func(v int) *Bindings {
		bs := NewBindings(4, n)
		var ids []graph.NodeID
		for id := graph.NodeID(0); id < graph.NodeID(n); id += 3 {
			ids = append(ids, id)
		}
		bs.SetIDs(v, ids)
		return bs
	}
	cuts := []struct {
		name string
		cut  restriction
	}{
		{"unsliced", restriction{ids: wholeIDSpace}},
		{"leaf sliced", restriction{vertex: 1, ids: idRange{lo: 300, hi: 700}}},
		{"hub sliced away", restriction{vertex: 0, ids: idRange{lo: 1, hi: graph.NodeID(n)}}},
	}
	for _, tw := range twigs {
		twig := STwig{Root: 0}
		for v := 1; v < len(tw.labels); v++ {
			twig.Leaves = append(twig.Leaves, v)
		}
		for _, cu := range cuts {
			for bi, bs := range []*Bindings{nil, everyThird(1), everyThird(0)} {
				hubSeen := false
				for i := 0; i < c.NumMachines(); i++ {
					m := c.Machine(i)
					got := matchSTwigOnMachine(context.Background(), m, twig, tw.labels, bs, cu.cut, &machineScratch{})
					want := scanSTwig(c, m, twig, tw.labels, bs, cu.cut)
					if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s, %s, bindings %d, machine %d:\n got %v\nwant %v", tw.name, cu.name, bi, i, got, want)
					}
					for _, match := range got {
						hubSeen = hubSeen || match.Root == 0
					}
				}
				if bi == 0 && cu.name == "unsliced" && hubSeen != tw.hubMatch {
					t.Fatalf("%s: hub matched %v, want %v", tw.name, hubSeen, tw.hubMatch)
				}
			}
		}
	}
}

func TestSTwigMatchExpandedCountAndWords(t *testing.T) {
	m := STwigMatch{
		Root:     7,
		LeafSets: [][]graph.NodeID{{1, 2, 3}, {4, 5}},
	}
	if got := m.ExpandedCount(); got != 6 {
		t.Fatalf("ExpandedCount = %d, want 6", got)
	}
	if got := m.words(); got != 1+2+3+2 {
		t.Fatalf("words = %d", got)
	}
}

func TestInjectivelySatisfiable(t *testing.T) {
	ok := [][]graph.NodeID{{1}, {2}}
	if !injectivelySatisfiable(ok) {
		t.Fatal("satisfiable sets rejected")
	}
	dead := [][]graph.NodeID{{1}, {1}}
	if injectivelySatisfiable(dead) {
		t.Fatal("two leaves forced onto one vertex accepted")
	}
}

func TestBindings(t *testing.T) {
	b := NewBindings(3, 64)
	if b.Bound(0) || b.Size(0) != -1 || !b.Allows(0, 5) {
		t.Fatal("fresh bindings should be unbound and allow everything")
	}
	b.SetIDs(0, []graph.NodeID{1, 2})
	if !b.Bound(0) || b.Size(0) != 2 {
		t.Fatal("SetIDs did not bind")
	}
	if !b.Allows(0, 1) || b.Allows(0, 3) {
		t.Fatal("Allows wrong")
	}
	vals := b.Values(0)
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("Values = %v", vals)
	}
	if b.Values(1) != nil {
		t.Fatal("unbound Values should be nil")
	}
}

func TestBindingsAcrossWordBoundaries(t *testing.T) {
	b := NewBindings(1, 200)
	ids := []graph.NodeID{0, 63, 64, 127, 128, 199}
	b.SetIDs(0, ids)
	if b.Size(0) != len(ids) {
		t.Fatalf("Size = %d, want %d", b.Size(0), len(ids))
	}
	for _, id := range ids {
		if !b.Allows(0, id) {
			t.Fatalf("Allows(%d) = false", id)
		}
	}
	for _, id := range []graph.NodeID{1, 62, 65, 198} {
		if b.Allows(0, id) {
			t.Fatalf("Allows(%d) = true", id)
		}
	}
	got := b.Values(0)
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("Values = %v, want %v", got, ids)
		}
	}
	// Out-of-range probes must not panic and must report false.
	if b.Allows(0, graph.NodeID(100000)) {
		t.Fatal("out-of-range id allowed")
	}
}

func TestCollectDeltas(t *testing.T) {
	twig := STwig{Root: 1, Leaves: []int{0, 2}}
	// Two machines' matches: the proxy builds one set per covered vertex
	// from both.
	perMachine := [][]STwigMatch{
		{{Root: 10, LeafSets: [][]graph.NodeID{{20, 21}, {30}}}},
		{{Root: 11, LeafSets: [][]graph.NodeID{{20}, {31}}}},
	}
	sc := newRunScratch(len(perMachine))
	sc.fit(64)
	b := NewBindings(3, 64)
	b.rebind(twig, perMachine, sc)
	if b.Size(1) != 2 {
		t.Fatalf("root set = %v", b.Values(1))
	}
	if b.Size(0) != 2 { // {20,21} ∪ {20}
		t.Fatalf("leaf-0 set = %v", b.Values(0))
	}
	if b.Size(2) != 2 { // {30,31}
		t.Fatalf("leaf-2 set = %v", b.Values(2))
	}
	if !b.Allows(2, 30) || !b.Allows(2, 31) || b.Allows(2, 29) {
		t.Fatal("set bits wrong")
	}

	// A later step that covers vertex 2 again replaces its set, and the
	// replaced set goes back to the scratch cleared; so does every set when
	// exploration ends.
	b.rebind(STwig{Root: 2, Leaves: []int{0}},
		[][]STwigMatch{{{Root: 31, LeafSets: [][]graph.NodeID{{21}}}}}, sc)
	if b.Size(2) != 1 || !b.Allows(2, 31) || b.Size(0) != 1 || !b.Allows(0, 21) || b.Size(1) != 2 {
		t.Fatalf("rebind: H_2=%v H_0=%v H_1=%v", b.Values(2), b.Values(0), b.Values(1))
	}
	b.release(sc)
	if b.Bound(0) || b.Bound(1) || b.Bound(2) {
		t.Fatal("release left a vertex bound")
	}
	// Five sets were taken; the fifth was the replaced H_2, reused.
	if len(sc.free) != 4 {
		t.Fatalf("%d sets back in the scratch, want the 4 ever allocated", len(sc.free))
	}
	for _, s := range sc.free {
		if s.bits.popcount() != 0 {
			t.Fatal("a set went back to the scratch uncleared")
		}
	}
}

// TestPropertyRebindClearsWhatItSet: a binding set lists every word it has
// made non-zero until it turns dense, and putSet hands back an all-zero set
// either way — over a width where both happen, and across many steps that
// reuse the same sets.
func TestPropertyRebindClearsWhatItSet(t *testing.T) {
	const numNodes = 64 * 64 // 64 words: a set lists up to 8 of them
	rng := rand.New(rand.NewSource(1))
	sc := newRunScratch(1)
	sc.fit(numNodes)
	var sparse, dense int
	for run := 0; run < 200; run++ {
		b := NewBindings(2, numNodes)
		for step := 0; step < 3; step++ {
			// A cluster of ids a few words wide, or ids from anywhere.
			span := int64(64 * (1 + rng.Intn(16)))
			if rng.Intn(4) == 0 {
				span = numNodes
			}
			matches := make([]STwigMatch, 1+rng.Intn(40))
			for i := range matches {
				matches[i] = STwigMatch{
					Root:     graph.NodeID(rng.Int63n(span)),
					LeafSets: [][]graph.NodeID{{graph.NodeID(rng.Int63n(span))}},
				}
			}
			b.rebind(STwig{Root: 0, Leaves: []int{1}}, [][]STwigMatch{matches}, sc)
			for v := range b.sets {
				s := b.sets[v]
				if s.dense {
					dense++
					continue
				}
				sparse++
				listed := map[int32]bool{}
				for _, w := range s.nonzero {
					listed[w] = true
				}
				for w, word := range s.bits {
					if (word != 0) != listed[int32(w)] {
						t.Fatalf("run %d step %d: word %d is %#x, listed %v", run, step, w, word, listed[int32(w)])
					}
				}
				if len(s.nonzero) > len(s.bits)/8 {
					t.Fatalf("a set lists %d of its %d words", len(s.nonzero), len(s.bits))
				}
			}
		}
		b.release(sc)
		for _, s := range sc.free {
			if s.bits.popcount() != 0 || len(s.nonzero) != 0 || s.dense {
				t.Fatalf("run %d: a set went back to the scratch uncleared", run)
			}
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("%d listed and %d dense sets: the fixture must make both", sparse, dense)
	}
}
