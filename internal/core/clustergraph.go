package core

import (
	"math/bits"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// ClusterGraph models data distribution with regard to a query (§5.3): one
// vertex per machine, an edge i→j iff the data graph G_q (G restricted to
// edges whose endpoint labels match some query edge) has an edge between a
// vertex on machine i and a vertex on machine j. It is built purely from
// the label-pair information recorded at load time — the data graph is
// never touched.
type ClusterGraph struct {
	k    int
	adj  []uint64 // adj[i] = bitmask of machines adjacent to i
	dist []int    // dist[i*k+j] = hop distance; Unreachable when disconnected
}

// BuildClusterGraph constructs the query-specific cluster graph and its
// all-pairs distances. The adjacency is one probe of the cluster's
// cross-pair table per query edge, which yields machine pairs, so it is
// symmetric as read and has no diagonal (no machine is its own neighbour).
// The distances are one BFS per machine, each level one OR over the
// frontier's adjacency masks (the cluster has ≤ 64 machines).
func BuildClusterGraph(c *memcloud.Cluster, q *Query, labels []graph.LabelID) ClusterGraph {
	k := c.NumMachines()
	cg := ClusterGraph{k: k, adj: make([]uint64, k), dist: make([]int, k*k)}
	for u := range q.adj {
		for _, v := range q.adj[u] {
			if u <= v {
				c.CrossAdj(labels[u], labels[v], cg.adj)
			}
		}
	}
	for src := 0; src < k; src++ {
		row := cg.dist[src*k : (src+1)*k]
		for j := range row {
			row[j] = Unreachable
		}
		seen := uint64(1) << uint(src)
		for d, frontier := 0, seen; frontier != 0; d++ {
			var next uint64
			for f := frontier; f != 0; f &= f - 1 {
				i := bits.TrailingZeros64(f)
				row[i] = d
				next |= cg.adj[i]
			}
			frontier = next &^ seen
			seen |= next
		}
	}
	return cg
}

// Distance returns D_C(i, j).
func (cg *ClusterGraph) Distance(i, j int) int { return cg.dist[i*cg.k+j] }

// HasEdge reports whether machines i and j are adjacent in the cluster
// graph.
func (cg *ClusterGraph) HasEdge(i, j int) bool { return cg.adj[i]&(1<<uint(j)) != 0 }

// within returns the machines at distance at most d from machine i, i
// itself included.
func (cg *ClusterGraph) within(i, d int) uint64 {
	var mask uint64
	for j, dj := range cg.dist[i*cg.k : (i+1)*cg.k] {
		if dj <= d {
			mask |= 1 << uint(j)
		}
	}
	return mask
}

// LoadSets is F of Theorem 4, one machine bitmask per (machine, STwig): bit
// j of Mask(k, t) is set iff machine k fetches STwig t's matches from
// machine j.
type LoadSets struct {
	machines, twigs int
	masks           []uint64 // masks[k*twigs+t]
}

// Machines returns the number of machines the load sets cover.
func (f LoadSets) Machines() int { return f.machines }

// Mask returns F_{k,t} as a machine bitmask.
func (f LoadSets) Mask(k, t int) uint64 { return f.masks[k*f.twigs+t] }

// LoadSets returns F_{k,t}, the set of remote machines machine k must fetch
// STwig t's matches from (Theorem 4):
//
//	F_{k,t} = { j ≠ k : D_C(k,j) ≤ d(r_head, r_t) }
//
// where d is the hop distance between STwig roots in the query graph, qd
// its Query.ShortestPaths.
func (cg *ClusterGraph) LoadSets(qd [][]int, dec Decomposition) LoadSets {
	headRoot := dec.Twigs[dec.Head].Root
	f := LoadSets{machines: cg.k, twigs: len(dec.Twigs), masks: make([]uint64, cg.k*len(dec.Twigs))}
	for k := 0; k < cg.k; k++ {
		for t, twig := range dec.Twigs {
			if t == dec.Head {
				continue // head matches are never fetched: F_{k,head} = ∅
			}
			f.masks[k*f.twigs+t] = cg.within(k, qd[headRoot][twig.Root]) &^ (1 << uint(k))
		}
	}
	return f
}

// allToAllLoadSets is the NoLoadSets ablation: every machine fetches every
// non-head STwig's matches from every other machine.
func allToAllLoadSets(k int, dec Decomposition) LoadSets {
	all := ^uint64(0) >> uint(64-k)
	f := LoadSets{machines: k, twigs: len(dec.Twigs), masks: make([]uint64, k*len(dec.Twigs))}
	for machine := 0; machine < k; machine++ {
		for t := range dec.Twigs {
			if t != dec.Head {
				f.masks[machine*f.twigs+t] = all &^ (1 << uint(machine))
			}
		}
	}
	return f
}

// SelectHead chooses the head STwig per §5.3: the STwig s minimizing the
// total communication T(s) = Σ_k |{j : D_C(k,j) ≤ d(s)}| where
// d(s) = max_i d(r_s, r_i), qd being the query's ShortestPaths. Ties break
// toward smaller d(s), then smaller index, for determinism.
func (cg *ClusterGraph) SelectHead(qd [][]int, twigs []STwig) int {
	best, bestT, bestD := 0, int(^uint(0)>>1), int(^uint(0)>>1)
	for s := range twigs {
		d := 0
		for i := range twigs {
			if dd := qd[twigs[s].Root][twigs[i].Root]; dd > d {
				d = dd
			}
		}
		t := 0
		for _, dkj := range cg.dist {
			if dkj <= d {
				t++
			}
		}
		if t < bestT || (t == bestT && d < bestD) {
			best, bestT, bestD = s, t, d
		}
	}
	return best
}
