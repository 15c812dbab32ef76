package memcloud

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

func TestBFSPartitionerBalance(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 12, AvgDegree: 8, NumLabels: 4, Seed: 2})
	const k = 8
	p := NewBFSPartitioner(g, k)
	if p.Machines() != k {
		t.Fatalf("Machines = %d", p.Machines())
	}
	counts := make([]int64, k)
	for v := int64(0); v < g.NumNodes(); v++ {
		counts[p.Owner(graph.NodeID(v))]++
	}
	per := g.NumNodes() / k
	for i, c := range counts {
		if c < per/2 || c > 2*per {
			t.Fatalf("machine %d holds %d of %d vertices — unbalanced %v", i, c, g.NumNodes(), counts)
		}
	}
}

func TestBFSPartitionerImprovedLocality(t *testing.T) {
	// On a community-structured graph, BFS partitioning must cut far fewer
	// edges than hash partitioning.
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	rng := rand.New(rand.NewSource(4))
	const comms = 64
	const size = 64
	for i := 0; i < comms*size; i++ {
		b.AddNode("x")
	}
	for c := 0; c < comms; c++ {
		base := int64(c * size)
		for i := 0; i < size*4; i++ {
			u, v := base+rng.Int63n(size), base+rng.Int63n(size)
			if u != v {
				b.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
		next := int64(((c + 1) % comms) * size)
		b.MustAddEdge(graph.NodeID(base), graph.NodeID(next))
	}
	g := b.Build()

	cutEdges := func(p Partitioner) int64 {
		var cut int64
		for v := int64(0); v < g.NumNodes(); v++ {
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				if graph.NodeID(v) < u && p.Owner(graph.NodeID(v)) != p.Owner(u) {
					cut++
				}
			}
		}
		return cut
	}
	const k = 8
	bfsCut := cutEdges(NewBFSPartitioner(g, k))
	hashCut := cutEdges(HashPartitioner{K: k})
	if bfsCut*4 > hashCut {
		t.Fatalf("BFS cut %d not far below hash cut %d", bfsCut, hashCut)
	}
}

func TestBFSPartitionerDynamicFallback(t *testing.T) {
	g := graph.MustFromEdges([]string{"a", "b"}, [][2]int64{{0, 1}}, graph.Undirected())
	p := NewBFSPartitioner(g, 4)
	// IDs beyond the build-time range still map into [0, k).
	for v := int64(2); v < 100; v++ {
		o := p.Owner(graph.NodeID(v))
		if o < 0 || o >= 4 {
			t.Fatalf("Owner(%d) = %d out of range", v, o)
		}
	}
}

func TestPropertyBFSPartitionerCoversAllMachinesOrFew(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
		for i := 0; i < n; i++ {
			b.AddNode("x")
		}
		for i := 0; i < 2*n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Build()
		k := 2 + rng.Intn(6)
		p := NewBFSPartitioner(g, k)
		// Every vertex assigned within range.
		for v := int64(0); v < g.NumNodes(); v++ {
			if o := p.Owner(graph.NodeID(v)); o < 0 || o >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterWithBFSPartitioner(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 10, AvgDegree: 8, NumLabels: 4, Seed: 9})
	c, err := NewCluster(Config{Machines: 4, Partitioner: NewBFSPartitioner(g, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 4; i++ {
		total += c.Machine(i).NumLocalNodes()
	}
	if total != g.NumNodes() {
		t.Fatalf("partition total %d != %d", total, g.NumNodes())
	}
}

// checkRangeInvertsOwner: over ids [0, upTo) of a K-way partition of n, every
// id lies in the range of its owner and of no other machine, and the ranges,
// taken in machine order, tile the id space — each starts where the last one
// ended, the first at 0, and the last has no end.
func checkRangeInvertsOwner(t *testing.T, k int, n, upTo int64) {
	t.Helper()
	p := RangePartitioner{K: k, N: n}
	for v := graph.NodeID(0); int64(v) < upTo; v++ {
		owner := p.Owner(v)
		for i := 0; i < k; i++ {
			lo, hi := p.Range(i)
			if in := lo <= v && v < hi; in != (i == owner) {
				t.Fatalf("K=%d N=%d: Owner(%d) = %d, but Range(%d) = [%d, %d) contains it: %v", k, n, v, owner, i, lo, hi, in)
			}
		}
	}
	var end graph.NodeID
	for i := 0; i < k; i++ {
		lo, hi := p.Range(i)
		if lo > hi || (lo < hi && lo != end) {
			t.Fatalf("K=%d N=%d: Range(%d) = [%d, %d) does not continue from %d", k, n, i, lo, hi, end)
		}
		if lo < hi {
			end = hi
		}
	}
	if end != math.MaxInt64 {
		t.Fatalf("K=%d N=%d: the ranges end at %d, leaving later ids to nobody", k, n, end)
	}
}

// TestRangeInvertsOwner walks the small cases whole: a count of zero (machine
// 0 owns everything), fewer vertices than machines, an exact multiple, one
// that is not, and ids past the count (the last machine's).
func TestRangeInvertsOwner(t *testing.T) {
	for k := 1; k <= 7; k++ {
		for _, n := range []int64{0, 1, int64(k) - 1, int64(k), 1000} {
			checkRangeInvertsOwner(t, k, n, n+64)
		}
	}
	if lo, hi := (RangePartitioner{K: 3, N: 0}).Range(0); lo != 0 || hi != math.MaxInt64 {
		t.Fatalf("N = 0: machine 0 owns [%d, %d), want everything", lo, hi)
	}
	if lo, hi := (RangePartitioner{K: 2, N: 1000}).Range(1); lo != 500 || hi != math.MaxInt64 {
		t.Fatalf("K=2 N=1000: the last range is [%d, %d), want [500, +inf)", lo, hi)
	}
}

// FuzzRange looks for a (K, N) whose ranges disagree with Owner, around the
// range boundaries and at the far end of the id space.
func FuzzRange(f *testing.F) {
	f.Add(1, int64(0))
	f.Add(2, int64(1))
	f.Add(3, int64(2))
	f.Add(7, int64(7))
	f.Add(5, int64(32773))
	f.Add(2, int64(math.MaxInt64/2))
	f.Fuzz(func(t *testing.T, k int, n int64) {
		if k < 1 || k > 64 || n < 0 || n > math.MaxInt64/2 {
			t.Skip()
		}
		checkRangeInvertsOwner(t, k, n, min(n+64, 512))
		p := RangePartitioner{K: k, N: n}
		for i := 0; i < k; i++ {
			lo, hi := p.Range(i)
			for _, v := range []graph.NodeID{lo - 1, lo, hi - 1, hi} {
				if v < 0 || v == math.MaxInt64 {
					continue
				}
				if in := lo <= v && v < hi; in != (p.Owner(v) == i) {
					t.Fatalf("K=%d N=%d: Owner(%d) = %d, Range(%d) = [%d, %d)", k, n, v, p.Owner(v), i, lo, hi)
				}
			}
		}
	})
}
