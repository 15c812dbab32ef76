package memcloud

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// figure5Graph approximates the paper's Figure 5: a graph spread over 4
// machines. We use a RangePartitioner so placement is predictable.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(
		[]string{"a", "b", "c", "d", "e", "f", "a", "b"},
		[][2]int64{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}},
		graph.Undirected(),
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func loadedCluster(t *testing.T, g *graph.Graph, k int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Machines: k, Partitioner: RangePartitioner{K: k, N: g.NumNodes()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{Machines: 0}); err == nil {
		t.Fatal("accepted 0 machines")
	}
	if _, err := NewCluster(Config{Machines: MaxMachines + 1}); err == nil {
		t.Fatal("accepted too many machines")
	}
	if _, err := NewCluster(Config{Machines: 3, Partitioner: HashPartitioner{K: 2}}); err == nil {
		t.Fatal("accepted mismatched partitioner")
	}
}

func TestLoadGraphPartitionsAllNodes(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	var total int64
	for i := 0; i < c.NumMachines(); i++ {
		total += c.Machine(i).NumLocalNodes()
	}
	if total != g.NumNodes() {
		t.Fatalf("machines hold %d nodes, graph has %d", total, g.NumNodes())
	}
	if err := c.LoadGraph(g); err == nil {
		t.Fatal("double load accepted")
	}
}

func TestLocalIDsOnlyLocal(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	for i := 0; i < c.NumMachines(); i++ {
		m := c.Machine(i)
		for _, name := range g.Labels().Names() {
			l := g.Labels().MustLookup(name)
			for _, id := range m.LocalIDs(l) {
				if c.Owner(id) != i {
					t.Fatalf("machine %d string index lists non-local vertex %d", i, id)
				}
				if g.Label(id) != l {
					t.Fatalf("vertex %d indexed under wrong label", id)
				}
			}
		}
	}
}

func TestLocalIDsCoverEveryVertex(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	seen := map[graph.NodeID]bool{}
	for i := 0; i < c.NumMachines(); i++ {
		m := c.Machine(i)
		for _, name := range g.Labels().Names() {
			for _, id := range m.LocalIDs(g.Labels().MustLookup(name)) {
				if seen[id] {
					t.Fatalf("vertex %d indexed twice", id)
				}
				seen[id] = true
			}
		}
	}
	if int64(len(seen)) != g.NumNodes() {
		t.Fatalf("indexes cover %d vertices, graph has %d", len(seen), g.NumNodes())
	}
}

// lowerOrderBound makes small cells label-ordered in a test.
func lowerOrderBound(t *testing.T, n int) {
	old := labelOrderBound
	labelOrderBound = n
	t.Cleanup(func() { labelOrderBound = old })
}

// inCellOrder returns nbrs laid out as a cell of that degree must be: in ID
// order, or above labelOrderBound in (label, id) order, label giving each
// neighbour's label ID in the cluster the cell belongs to.
func inCellOrder(nbrs []graph.NodeID, label func(graph.NodeID) graph.LabelID) []graph.NodeID {
	out := slices.Clone(nbrs)
	if len(out) <= labelOrderBound {
		slices.Sort(out)
		return out
	}
	slices.SortFunc(out, func(a, b graph.NodeID) int {
		return cmp.Or(cmp.Compare(label(a), label(b)), cmp.Compare(a, b))
	})
	return out
}

// wide returns a cell's neighbours widened from arena entries to IDs.
func wide(nbrs []uint32) []graph.NodeID {
	ids := make([]graph.NodeID, len(nbrs))
	for i, w := range nbrs {
		ids[i] = graph.NodeID(w)
	}
	return ids
}

// localCount counts the neighbours of v that c places on v's machine.
func localCount(c *Cluster, v graph.NodeID, nbrs []graph.NodeID) int32 {
	var n int32
	for _, w := range nbrs {
		if c.Owner(w) == c.Owner(v) {
			n++
		}
	}
	return n
}

// At the real bound every cell of the test graph is in ID order; with the
// bound lowered below their degree, in (label, id) order.
func TestLoadReturnsCorrectCell(t *testing.T) {
	for _, bound := range []int{labelOrderBound, 2} {
		lowerOrderBound(t, bound)
		g := testGraph(t)
		c := loadedCluster(t, g, 4)
		for v := int64(0); v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			cell, ok := c.Cell(id)
			if !ok {
				t.Fatalf("Cell(%d) not found", id)
			}
			if cell.Label != g.Label(id) {
				t.Fatalf("Cell(%d) label = %d, want %d", id, cell.Label, g.Label(id))
			}
			want := inCellOrder(g.Neighbors(id), g.Label)
			if len(cell.Neighbors) != len(want) {
				t.Fatalf("Cell(%d) has %d neighbors, want %d", id, len(cell.Neighbors), len(want))
			}
			if got := wide(cell.Neighbors); !slices.Equal(got, want) {
				t.Fatalf("bound %d: Cell(%d) neighbors = %v, want %v", bound, id, got, want)
			}
			if cell.LabelOrdered() != (len(want) > bound) {
				t.Fatalf("bound %d: Cell(%d) of degree %d reports LabelOrdered %v", bound, id, len(want), cell.LabelOrdered())
			}
			if local := localCount(c, id, want); cell.local != local {
				t.Fatalf("bound %d: Cell(%d) counts %d local neighbours, want %d", bound, id, cell.local, local)
			}
		}
	}
}

func TestLoadMissingVertex(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 2)
	if _, ok := c.Cell(graph.NodeID(10_000)); ok {
		t.Fatal("Cell of nonexistent vertex succeeded")
	}
}

// resolveFrom reads the label of each of ids through one label batch
// issued from machine from and returns the labels with what the batch
// charged: nothing, since reading a label is not what a batch charges.
func resolveFrom(c *Cluster, from int, ids []graph.NodeID) ([]graph.LabelID, NetStats) {
	var net NetStats
	b := c.Machine(from).LabelBatch(&net)
	labels := make([]graph.LabelID, len(ids))
	for i, id := range ids {
		labels[i] = b.Label(id)
	}
	b.Flush()
	return labels, net
}

// chargeFrom charges the cells of ids, all machine from's own, to one label
// batch and returns what it charged.
func chargeFrom(c *Cluster, from int, ids ...graph.NodeID) NetStats {
	var net NetStats
	m := c.Machine(from)
	b := m.LabelBatch(&net)
	for _, id := range ids {
		cell, ok := m.LoadLocal(id)
		if !ok {
			panic(fmt.Sprintf("vertex %d is not machine %d's", id, from))
		}
		b.Charge(cell)
	}
	b.Flush()
	return net
}

func TestLabelBatchCorrectAndBatched(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	ids := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	labels, net := resolveFrom(c, 0, ids)
	for i, id := range ids {
		if labels[i] != g.Label(id) {
			t.Fatalf("batch label of %d = %d, want %d", id, labels[i], g.Label(id))
		}
	}
	if net != (NetStats{}) {
		t.Fatalf("reading labels charged %v", net)
	}
	// With a range partitioner over 8 nodes and 4 machines, machine 0 owns
	// nodes 0-1. Their cells {1,2,7} and {0,2,3} ask 3 words of machine 1
	// (2 twice, and 3) and 1 of machine 3 (7) => 2 messages, one per
	// remote owner.
	if want := (NetStats{Messages: 2, Bytes: payloadSize(1, 3) + payloadSize(1, 1)}); chargeFrom(c, 0, 0, 1) != want {
		t.Fatalf("batch charged %v, want %v (one message per remote owner)", chargeFrom(c, 0, 0, 1), want)
	}
	// On 2 machines, machine 0 owns 0-3, and the cell of 2 is {0,1,3}.
	c = loadedCluster(t, g, 2)
	if net := chargeFrom(c, 0, 2); net != (NetStats{}) {
		t.Fatalf("a cell of local neighbours charged %v", net)
	}
}

func TestLabelBatchMissingVertex(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 2)
	labels, net := resolveFrom(c, 0, []graph.NodeID{0, 10_000, -1, math.MinInt64})
	for i, l := range labels[1:] {
		if l != graph.NoLabel {
			t.Fatalf("missing vertex label %d = %d, want NoLabel", i+1, l)
		}
	}
	if net != (NetStats{}) {
		t.Fatalf("a local vertex and missing ones charged %v", net)
	}
}

func TestShipWords(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 2)
	var net NetStats
	c.ShipWords(&net, 0, 0, 100) // local: free
	if net.Messages != 0 {
		t.Fatal("local ship accounted")
	}
	c.ShipWords(&net, 0, 1, 100)
	if net.Messages != 1 || net.Bytes != payloadSize(1, 100) {
		t.Fatalf("ship stats = %v", net)
	}
	c.AccountProxyTransfer(&net, 3)
	if want := (NetStats{Messages: 2, Bytes: payloadSize(1, 100) + payloadSize(1, 3)}); net != want {
		t.Fatalf("after a proxy transfer: %v, want %v", net, want)
	}
}

func TestGlobalLabelCount(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	if got := c.GlobalLabelCount(g.Labels().MustLookup("a")); got != 2 {
		t.Fatalf("GlobalLabelCount(a) = %d, want 2", got)
	}
	if got := c.GlobalLabelCount(g.Labels().MustLookup("d")); got != 1 {
		t.Fatalf("GlobalLabelCount(d) = %d, want 1", got)
	}
}

func TestHashPartitionerBalance(t *testing.T) {
	p := HashPartitioner{K: 8}
	counts := make([]int, 8)
	const n = 100_000
	for v := 0; v < n; v++ {
		counts[p.Owner(graph.NodeID(v))]++
	}
	for i, got := range counts {
		share := float64(got) / n
		if share < 0.10 || share > 0.15 { // expect 0.125
			t.Fatalf("machine %d share %.3f unbalanced", i, share)
		}
	}
}

func TestRangePartitioner(t *testing.T) {
	p := RangePartitioner{K: 4, N: 8}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for v, w := range want {
		if got := p.Owner(graph.NodeID(v)); got != w {
			t.Fatalf("Owner(%d) = %d, want %d", v, got, w)
		}
	}
	// Out-of-range IDs clamp to the last machine rather than panic.
	if got := p.Owner(graph.NodeID(100)); got != 3 {
		t.Fatalf("Owner(100) = %d, want 3", got)
	}
	if (RangePartitioner{K: 2, N: 0}).Owner(0) != 0 {
		t.Fatal("empty-range partitioner should map to machine 0")
	}
}

func TestParallelEachRunsAllMachines(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	seen := make([]bool, 4)
	results := make(chan int, 4)
	before := time.Now()
	c.ParallelEach(func(m *Machine, start time.Time) time.Time {
		if start.Before(before) {
			t.Errorf("machine %d starts at a reading taken before the call", m.ID())
		}
		results <- m.ID()
		return time.Now()
	})
	close(results)
	for id := range results {
		seen[id] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("machine %d did not run", i)
		}
	}
}

// TestParallelEachBlockedPhaseStallsNoOther: a phase whose machines block
// — a join stuck in emit on a slow client's socket — holds its own workers
// only. Phases on the same cluster and on another still run to the end
// while it is blocked: the hand-off to parked workers never waits for one.
func TestParallelEachBlockedPhaseStallsNoOther(t *testing.T) {
	g := testGraph(t)
	c, other := loadedCluster(t, g, 4), loadedCluster(t, g, 4)
	workers := min(runtime.GOMAXPROCS(0), 4)
	entered := make(chan struct{}, 4)
	release, blockedDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(blockedDone)
		c.ParallelEach(func(m *Machine, start time.Time) time.Time {
			entered <- struct{}{}
			<-release
			return time.Now()
		})
	}()
	for range workers { // every worker of the blocked phase is inside fn
		<-entered
	}
	for _, cl := range []*Cluster{c, other, c, other} {
		done := make(chan int, 4)
		go func() {
			cl.ParallelEach(func(m *Machine, start time.Time) time.Time {
				done <- m.ID()
				return time.Now()
			})
			close(done)
		}()
		ran := 0
		timeout := time.After(10 * time.Second)
		for open := true; open; {
			select {
			case _, open = <-done:
				if open {
					ran++
				}
			case <-timeout:
				t.Fatalf("a phase waited behind a blocked one: %d of 4 machines ran", ran)
			}
		}
		if ran != 4 {
			t.Fatalf("%d of 4 machines ran", ran)
		}
	}
	close(release)
	<-blockedDone
}

// TestParallelEachPoolSettles: after a burst of concurrent phases on
// several clusters, each worker either parks or exits, and at most
// GOMAXPROCS park: the goroutine count falls back to what it was, plus at
// most GOMAXPROCS parked workers.
func TestParallelEachPoolSettles(t *testing.T) {
	g := testGraph(t)
	clusters := []*Cluster{loadedCluster(t, g, 4), loadedCluster(t, g, 3), loadedCluster(t, g, 1)}
	procs := runtime.GOMAXPROCS(0)
	base := runtime.NumGoroutine() - ParkedWorkers()
	var wg sync.WaitGroup
	for i := range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				clusters[i%len(clusters)].ParallelEach(func(m *Machine, start time.Time) time.Time {
					if m.ID()%2 == 0 {
						runtime.Gosched()
					}
					return time.Now()
				})
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+procs {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the burst, %d parked: more than %d before it + GOMAXPROCS = %d",
				runtime.NumGoroutine(), ParkedWorkers(), base, procs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := ParkedWorkers(); n > procs {
		t.Fatalf("%d workers parked, more than GOMAXPROCS = %d", n, procs)
	}
}

// TestParallelEachWarmPoolStartsNoGoroutine: a phase's workers park before
// it returns, so the next phase finds them and starts no goroutine — not
// even one that is gone again by the time the caller looks.
func TestParallelEachWarmPoolStartsNoGoroutine(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	noop := func(m *Machine, start time.Time) time.Time { return time.Now() }
	c.ParallelEach(noop)
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	c.ParallelEach(func(m *Machine, start time.Time) time.Time {
		n := int64(runtime.NumGoroutine())
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		return time.Now()
	})
	if peak.Load() > int64(before) {
		t.Fatalf("%d goroutines during the second phase, %d before it: it started workers", peak.Load(), before)
	}
	if n := ParkedWorkers(); n < min(runtime.GOMAXPROCS(0), 4) {
		t.Fatalf("%d workers parked after two phases of %d workers", n, min(runtime.GOMAXPROCS(0), 4))
	}
}

func TestLoadLargerGraphAcrossMachines(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 11, AvgDegree: 8, NumLabels: 8, Seed: 5})
	c := MustNewCluster(Config{Machines: 6})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 6; i++ {
		total += c.Machine(i).NumLocalNodes()
	}
	if total != g.NumNodes() {
		t.Fatalf("partition total = %d, want %d", total, g.NumNodes())
	}
	if c.TotalMemoryBytes() <= 0 || c.StringIndexBytes() <= 0 {
		t.Fatal("memory estimates not positive")
	}
	// Spot-check 100 random vertices.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		id := graph.NodeID(rng.Int63n(g.NumNodes()))
		cell, ok := c.Cell(id)
		if !ok || cell.Label != g.Label(id) || len(cell.Neighbors) != g.Degree(id) {
			t.Fatalf("Cell(%d) mismatch", id)
		}
	}
}

func TestMachineAccessors(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	m := c.Machine(1)
	if m.ID() != 1 || m.Cluster() != c {
		t.Fatal("machine accessors wrong")
	}
	if !m.Owns(graph.NodeID(2)) || m.Owns(graph.NodeID(0)) {
		t.Fatal("Owns wrong under range partition")
	}
	if _, ok := m.LoadLocal(graph.NodeID(2)); !ok {
		t.Fatal("LoadLocal of owned vertex failed")
	}
	if _, ok := m.LoadLocal(graph.NodeID(0)); ok {
		t.Fatal("LoadLocal of foreign vertex succeeded")
	}
	if m.LocalLabelCount(g.Labels().MustLookup("c")) != 1 {
		t.Fatal("LocalLabelCount wrong")
	}
}

func TestNetStatsAdd(t *testing.T) {
	s := NetStats{Messages: 4, Bytes: 40}
	s.Add(NetStats{Messages: 6, Bytes: 60})
	if s != (NetStats{Messages: 10, Bytes: 100}) {
		t.Fatalf("Add = %v", s)
	}
	if s.String() != "messages=10 bytes=100" {
		t.Fatalf("String = %q", s.String())
	}
}
