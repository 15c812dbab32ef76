package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// pathClusterGraph builds a data graph whose partitions form a path in the
// cluster graph: machine i connects only to machine i±1, via label-chain
// edges. RangePartitioner with 2 nodes per machine.
func pathClusterSetup(t *testing.T, k int) (*memcloud.Cluster, *graph.Graph) {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected())
	// Nodes 2i, 2i+1 live on machine i; labels "x" everywhere.
	for i := 0; i < 2*k; i++ {
		b.AddNode("x")
	}
	// Chain across machines: node 2i+1 — node 2(i+1).
	for i := 0; i < k-1; i++ {
		b.MustAddEdge(graph.NodeID(2*i+1), graph.NodeID(2*(i+1)))
	}
	// Intra-machine edges so every machine has local structure.
	for i := 0; i < k; i++ {
		b.MustAddEdge(graph.NodeID(2*i), graph.NodeID(2*i+1))
	}
	g := b.Build()
	c := memcloud.MustNewCluster(memcloud.Config{
		Machines:    k,
		Partitioner: memcloud.RangePartitioner{K: k, N: g.NumNodes()},
	})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	return c, g
}

func TestClusterGraphPathDistances(t *testing.T) {
	const k = 5
	c, _ := pathClusterSetup(t, k)
	q := MustNewQuery([]string{"x", "x"}, [][2]int{{0, 1}})
	labels, ok := q.resolveLabels(c.Labels())
	if !ok {
		t.Fatal("labels not resolved")
	}
	cg := BuildClusterGraph(c, q, labels)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			want := j - i
			if want < 0 {
				want = -want
			}
			if got := cg.Distance(i, j); got != want {
				t.Fatalf("DC(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	if !cg.HasEdge(0, 1) || cg.HasEdge(0, 2) {
		t.Fatal("cluster graph adjacency wrong")
	}
}

func TestClusterGraphIgnoresIrrelevantLabels(t *testing.T) {
	// Cross-machine edges exist only between labels (y,z); a query over
	// (x,x) must see a disconnected cluster graph.
	b := graph.NewBuilder(graph.Undirected())
	b.AddNode("x")      // node 0, machine 0
	b.AddNode("y")      // node 1, machine 0
	b.AddNode("z")      // node 2, machine 1
	b.AddNode("x")      // node 3, machine 1
	b.MustAddEdge(0, 1) // x-y intra machine 0
	b.MustAddEdge(1, 2) // y-z cross 0-1
	b.MustAddEdge(2, 3) // z-x intra machine 1
	g := b.Build()
	c := memcloud.MustNewCluster(memcloud.Config{Machines: 2, Partitioner: memcloud.RangePartitioner{K: 2, N: 4}})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	qx := MustNewQuery([]string{"x", "y"}, [][2]int{{0, 1}})
	labels, _ := qx.resolveLabels(c.Labels())
	cg := BuildClusterGraph(c, qx, labels)
	if cg.Distance(0, 1) != Unreachable {
		t.Fatalf("query-irrelevant cross edge linked machines: DC(0,1)=%d", cg.Distance(0, 1))
	}
	qyz := MustNewQuery([]string{"y", "z"}, [][2]int{{0, 1}})
	labels2, _ := qyz.resolveLabels(c.Labels())
	cg2 := BuildClusterGraph(c, qyz, labels2)
	if cg2.Distance(0, 1) != 1 {
		t.Fatalf("relevant cross edge missing: DC(0,1)=%d", cg2.Distance(0, 1))
	}
}

func TestLoadSetsHeadEmptyAndBounded(t *testing.T) {
	const k = 5
	c, _ := pathClusterSetup(t, k)
	// Path query x-x-x: decomposition gives 2 STwigs with adjacent roots.
	q := MustNewQuery([]string{"x", "x", "x"}, [][2]int{{0, 1}, {1, 2}})
	labels, _ := q.resolveLabels(c.Labels())
	dec := DecomposeOrdered(q, uniformF(q))
	cg := BuildClusterGraph(c, q, labels)
	qd := q.ShortestPaths()
	dec.Head = cg.SelectHead(qd, dec.Twigs)
	F := cg.LoadSets(qd, dec)
	if F.Machines() != k {
		t.Fatalf("load sets cover %d machines, want %d", F.Machines(), k)
	}
	headRoot := dec.Twigs[dec.Head].Root
	for machine := 0; machine < k; machine++ {
		if F.Mask(machine, dec.Head) != 0 {
			t.Fatalf("head load set not empty on machine %d", machine)
		}
		for ti, tw := range dec.Twigs {
			if ti == dec.Head {
				continue
			}
			bound := qd[headRoot][tw.Root]
			if F.Mask(machine, ti)>>k != 0 {
				t.Fatalf("machine %d fetches twig %d from a machine past %d: %b", machine, ti, k, F.Mask(machine, ti))
			}
			for j := 0; j < k; j++ {
				fetched := F.Mask(machine, ti)&(1<<j) != 0
				if fetched && j == machine {
					t.Fatalf("machine %d fetches from itself", machine)
				}
				if fetched && cg.Distance(machine, j) > bound {
					t.Fatalf("machine %d fetches twig %d from machine %d at distance %d > %d",
						machine, ti, j, cg.Distance(machine, j), bound)
				}
				// Completeness: every machine within the bound is included.
				if !fetched && j != machine && cg.Distance(machine, j) <= bound {
					t.Fatalf("machine %d missing in-range machine %d for twig %d", machine, j, ti)
				}
			}
		}
	}
}

func TestSelectHeadMinimizesEccentricity(t *testing.T) {
	// Long path query a-b-c-d-e: the STwig rooted nearest the center has
	// the smallest max root distance and should be chosen when the cluster
	// graph is connected.
	c, _ := pathClusterSetup(t, 4)
	q := MustNewQuery([]string{"x", "x", "x", "x", "x"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	labels, _ := q.resolveLabels(c.Labels())
	dec := DecomposeOrdered(q, uniformF(q))
	cg := BuildClusterGraph(c, q, labels)
	qd := q.ShortestPaths()
	head := cg.SelectHead(qd, dec.Twigs)
	// Compute d(s) for the chosen head and verify it is minimal.
	ds := func(s int) int {
		d := 0
		for i := range dec.Twigs {
			if dd := qd[dec.Twigs[s].Root][dec.Twigs[i].Root]; dd > d {
				d = dd
			}
		}
		return d
	}
	for s := range dec.Twigs {
		if ds(s) < ds(head) {
			t.Fatalf("head %d has d=%d but STwig %d has d=%d", head, ds(head), s, ds(s))
		}
	}
}

// TestPropertyLoadSetSoundness: for random graphs/queries/partitions, every
// full match's non-head STwig restrictions must be reachable through the
// load sets — equivalently, the engine with load sets finds exactly what
// the all-to-all engine finds. (Also covered by ablation equality tests,
// but this pins the specific Theorem 4 mechanism with more machines.)
func TestPropertyLoadSetSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"a", "b", "c", "d"}
		g := randomDataGraph(rng, 30+rng.Intn(30), 80+rng.Intn(60), labels)
		q := randomConnectedQuery(rng, 3+rng.Intn(3), rng.Intn(3), labels)
		machines := 2 + rng.Intn(7)
		run := func(opts Options) (map[string]bool, bool) {
			c := memcloud.MustNewCluster(memcloud.Config{Machines: machines})
			if err := c.LoadGraph(g); err != nil {
				return nil, false
			}
			res, err := NewEngine(c, opts).Match(q)
			if err != nil {
				return nil, false
			}
			return MatchSet(res.Matches), true
		}
		with, ok1 := run(Options{Seed: seed})
		without, ok2 := run(Options{Seed: seed, NoLoadSets: true})
		if !ok1 || !ok2 || len(with) != len(without) {
			return false
		}
		for k := range without {
			if !with[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyClusterGraphMatchesBruteForce: for random graphs, partitions,
// cluster sizes and queries, BuildClusterGraph's adjacency is exactly the
// cluster graph of §5.3 computed from the data graph: machines i ≠ j are
// adjacent iff an edge whose labels match some query edge, in either
// orientation, joins a vertex on i and one on j. No machine is its own
// neighbour.
func TestPropertyClusterGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		g := randomDataGraph(rng, 30+rng.Intn(30), 60+rng.Intn(60), labels)
		q := randomConnectedQuery(rng, 2+rng.Intn(4), rng.Intn(3), labels)
		k := []int{2, 3, 5, 8, 12, 17, 33, 64}[rng.Intn(8)]
		var part memcloud.Partitioner
		switch rng.Intn(3) {
		case 0:
			part = memcloud.HashPartitioner{K: k}
		case 1:
			part = memcloud.RangePartitioner{K: k, N: g.NumNodes()}
		default:
			part = memcloud.NewBFSPartitioner(g, k)
		}
		c := memcloud.MustNewCluster(memcloud.Config{Machines: k, Partitioner: part})
		if err := c.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		ql, ok := q.resolveLabels(c.Labels())
		if !ok {
			t.Fatalf("trial %d: query labels unresolved", trial)
		}
		queried := map[[2]graph.LabelID]bool{}
		for _, e := range q.Edges() {
			queried[[2]graph.LabelID{ql[e[0]], ql[e[1]]}] = true
			queried[[2]graph.LabelID{ql[e[1]], ql[e[0]]}] = true
		}
		want := make([]uint64, k)
		for v := int64(0); v < g.NumNodes(); v++ {
			u := graph.NodeID(v)
			for _, w := range g.Neighbors(u) {
				if i, j := c.Owner(u), c.Owner(w); i != j && queried[[2]graph.LabelID{g.Label(u), g.Label(w)}] {
					want[i] |= 1 << j
				}
			}
		}
		cg := BuildClusterGraph(c, q, ql)
		for i := range want {
			if cg.adj[i] != want[i] {
				t.Fatalf("trial %d (%d machines, %d query edges): adj[%d] = %b, brute force %b", trial, k, q.NumEdges(), i, cg.adj[i], want[i])
			}
		}
	}
}
