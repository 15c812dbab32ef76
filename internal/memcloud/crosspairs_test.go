package memcloud

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// crossEntry is one bit of the cross-pair table, by name: label names
// la ≤ lb, machines i < j.
type crossEntry struct {
	la, lb string
	i, j   int
}

func newCrossEntry(la, lb string, i, j int) crossEntry {
	if la > lb {
		la, lb = lb, la
	}
	if i > j {
		i, j = j, i
	}
	return crossEntry{la, lb, i, j}
}

// crossTable reads every bit of c's cross-pair table, by label name, which
// is what survives a snapshot: label IDs are private to a cluster.
func crossTable(c *Cluster) map[crossEntry]bool {
	cp := c.cross
	name := func(code uint32) string {
		if code == 0 {
			return "" // NoLabel's code
		}
		return c.Labels().Name(graph.LabelID(code - 1))
	}
	got := map[crossEntry]bool{}
	for s, key := range cp.keys {
		if key == 0 {
			continue
		}
		la, lb := name(uint32(key>>32)&^(1<<31)), name(uint32(key))
		for p, pair := range cp.pairs {
			if cp.sets[s*cp.words+p/64]&(1<<(p%64)) != 0 {
				got[newCrossEntry(la, lb, int(pair.i), int(pair.j))] = true
			}
		}
	}
	return got
}

// bruteCrossTable recomputes the table from the edges of a graph of n
// vertices as c places them: a bit for every edge whose ends lie on two
// machines.
func bruteCrossTable(c *Cluster, n int64, label func(graph.NodeID) string, nbrs func(graph.NodeID) []graph.NodeID) map[crossEntry]bool {
	want := map[crossEntry]bool{}
	for v := graph.NodeID(0); int64(v) < n; v++ {
		for _, w := range nbrs(v) {
			if i, j := c.Owner(v), c.Owner(w); i != j {
				want[newCrossEntry(label(v), label(w), i, j)] = true
			}
		}
	}
	return want
}

// diffCrossTables names the entries one table has and the other lacks.
func diffCrossTables(got, want map[crossEntry]bool) (missing, extra []crossEntry) {
	for e := range want {
		if !got[e] {
			missing = append(missing, e)
		}
	}
	for e := range got {
		if !want[e] {
			extra = append(extra, e)
		}
	}
	return missing, extra
}

// crossAdj is CrossAdj into a fresh adjacency.
func crossAdj(c *Cluster, la, lb graph.LabelID) []uint64 {
	adj := make([]uint64, c.NumMachines())
	c.CrossAdj(la, lb, adj)
	return adj
}

func TestCrossAdjReflectsEdges(t *testing.T) {
	g := testGraph(t)
	c := loadedCluster(t, g, 4)
	// Range partition, two nodes a machine. The (a,b) edges are (0,1)
	// inside machine 0, (6,7) inside machine 3, and (7,0) from machine 3
	// to machine 0. Only the last one joins two machines.
	la := g.Labels().MustLookup("a")
	lb := g.Labels().MustLookup("b")
	want := []uint64{1 << 3, 0, 0, 1 << 0}
	for _, pair := range [][2]graph.LabelID{{la, lb}, {lb, la}} {
		if got := crossAdj(c, pair[0], pair[1]); !slices.Equal(got, want) {
			t.Fatalf("CrossAdj(%d, %d) = %b, want %b", pair[0], pair[1], got, want)
		}
	}
	// A never-adjacent label pair.
	ld := g.Labels().MustLookup("d")
	lf := g.Labels().MustLookup("f")
	if got := crossAdj(c, ld, lf); slices.ContainsFunc(got, func(m uint64) bool { return m != 0 }) {
		t.Fatalf("phantom (d,f) machine pairs %b", got)
	}
}

// The triangle of a cluster of k machines takes ⌈k(k−1)/2 / 64⌉ words per
// entry, and each of its bits names a distinct machine pair i < j.
func TestCrossPairsTriangle(t *testing.T) {
	for k, words := range map[int]int{1: 0, 2: 1, 11: 1, 12: 2, 16: 2, 17: 3, 32: 8, 64: 32} {
		cp := newCrossPairs(k)
		if cp.words != words || len(cp.pairs) != k*(k-1)/2 {
			t.Fatalf("k=%d: %d words for %d pairs, want %d words", k, cp.words, len(cp.pairs), words)
		}
		for p, pair := range cp.pairs {
			if pair.i >= pair.j || int(pair.j) >= k || cp.pairBit(int(pair.i), int(pair.j)) != p || cp.pairBit(int(pair.j), int(pair.i)) != p {
				t.Fatalf("k=%d: bit %d stands for %v", k, p, pair)
			}
		}
	}
}

func TestPropertyCrossAdjSoundAndComplete(t *testing.T) {
	// For random graphs, partitions and cluster sizes, per unordered label
	// pair {la, lb}: CrossAdj sets bit j of adj[i] and bit i of adj[j] iff
	// some edge labelled {la, lb} joins machines i ≠ j, and never sets a
	// machine's own bit. Sizes past 11 and 64 machines take more than one
	// word per entry; an unlabelled vertex takes NoLabel's key.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(40)
		b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
		labels := []string{"a", "b", "c"}
		for _, l := range labels {
			b.Labels().Intern(l) // every label resolvable even if unused
		}
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				b.AddNodeLabelID(graph.NoLabel)
			} else {
				b.AddNode(labels[rng.Intn(3)])
			}
		}
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Build()
		k := []int{2, 3, 5, 12, 17, 64}[rng.Intn(6)]
		kind := partitionerKinds[rng.Intn(len(partitionerKinds))]
		c := modelCluster(t, kind, g, k)

		want := map[[2]graph.LabelID][]uint64{}
		for v := int64(0); v < g.NumNodes(); v++ {
			u := graph.NodeID(v)
			for _, w := range g.Neighbors(u) {
				i, j := c.Owner(u), c.Owner(w)
				if i == j {
					continue
				}
				key := [2]graph.LabelID{g.Label(u), g.Label(w)}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if want[key] == nil {
					want[key] = make([]uint64, k)
				}
				want[key][i] |= 1 << j
				want[key][j] |= 1 << i
			}
		}
		ids := []graph.LabelID{graph.NoLabel}
		for _, l := range labels {
			ids = append(ids, g.Labels().MustLookup(l))
		}
		for _, la := range ids {
			for _, lb := range ids {
				key := [2]graph.LabelID{min(la, lb), max(la, lb)}
				w := want[key]
				if w == nil {
					w = make([]uint64, k)
				}
				if got := crossAdj(c, la, lb); !slices.Equal(got, w) {
					t.Fatalf("trial %d (%s, %d machines): CrossAdj(%d, %d) = %b, want %b", trial, kind, k, la, lb, got, w)
				}
			}
		}
	}
}

// A graph of many labels grows the table through many doublings while the
// machines write it concurrently, and AddEdge grows it further; every bit
// must survive, and none appear.
func TestCrossPairsExactAcrossGrowth(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 11, AvgDegree: 8, NumLabels: 256, Seed: 5})
	for _, k := range []int{3, 8, 17} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			c := MustNewCluster(Config{Machines: k})
			if err := c.LoadGraph(g); err != nil {
				t.Fatal(err)
			}
			if slots := len(c.cross.keys); slots <= crossMinSlots {
				t.Fatalf("the table never grew: %d slots", slots)
			}
			want := bruteCrossTable(c, g.NumNodes(), g.LabelString, g.Neighbors)
			if missing, extra := diffCrossTables(crossTable(c), want); len(missing)+len(extra) > 0 {
				t.Fatalf("after LoadGraph: %d missing (%v…), %d extra (%v…)", len(missing), missing[:min(3, len(missing))], len(extra), extra[:min(3, len(extra))])
			}
			// New vertices with new labels, wired to the old ones: every
			// edge a new label pair, half of them across machines.
			slots := len(c.cross.keys)
			rng := rand.New(rand.NewSource(int64(k)))
			n := graph.NodeID(g.NumNodes())
			for x := 0; x < 2000; x++ {
				label := fmt.Sprintf("new%d", x)
				v, err := c.AddNode(label)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < 8; e++ {
					u := graph.NodeID(rng.Int63n(int64(n)))
					if err := c.AddEdge(u, v); err != nil {
						continue // drew u twice
					}
					if i, j := c.Owner(u), c.Owner(v); i != j {
						want[newCrossEntry(g.LabelString(u), label, i, j)] = true
					}
				}
			}
			if len(c.cross.keys) <= slots {
				t.Fatalf("AddEdge never grew the table past %d slots", slots)
			}
			if missing, extra := diffCrossTables(crossTable(c), want); len(missing)+len(extra) > 0 {
				t.Fatalf("after AddEdge: %d missing (%v…), %d extra (%v…)", len(missing), missing[:min(3, len(missing))], len(extra), extra[:min(3, len(extra))])
			}
		})
	}
}

// TotalMemoryBytes must account for what a load keeps: the live heap a
// LoadGraph adds, measured after a collection on either side, and the
// count agree within 10 %. Run with 1024 labels, where the cross-pair
// table is a third of the cluster. Not parallel: it reads the whole heap.
func TestTotalMemoryBytesMatchesLoadHeap(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 16, AvgDegree: 8, NumLabels: 1024, Seed: 20120827})
	c := MustNewCluster(Config{Machines: 8})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g) // the load copies g; its garbage would hide the copy
	runtime.KeepAlive(c)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	counted := c.TotalMemoryBytes()
	t.Logf("LoadGraph grew the heap by %d B; TotalMemoryBytes counts %d B, the cross-pair table %d B of them",
		grown, counted, c.cross.memoryBytes())
	if diff := counted - grown; diff > grown/10 || -diff > grown/10 {
		t.Fatalf("TotalMemoryBytes = %d B, but LoadGraph grew the heap by %d B: more than 10 %% apart", counted, grown)
	}
}
