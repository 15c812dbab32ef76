// Package memcloud simulates the Trinity memory cloud the paper deploys
// graphs on (§2.2): a cluster of machines whose RAM jointly holds one large
// graph, addressed through a unified ID space. Each simulated machine owns a
// partition of the vertices, stores its adjacency in a flat slab (the
// "memory trunk" design: one arena and one slot-addressed cell directory, no
// per-object heap overhead), keeps a local string index mapping labels to
// local vertex IDs, and reaches remote vertices through a message fabric
// that charges every message and byte to a NetStats its caller owns.
//
// The unified ID space is two flat, parallel address tables on the Cluster:
// vertex IDs are dense, entry v of the tag table holds v's owner machine and
// label, and entry v of the slot table its slot in that machine's
// directory, so locating any cell is three array reads and a label one. A
// Partitioner is only the placement policy that fills the tables — asked
// once per vertex, at load or AddNode, never per lookup. The tables, the
// directories and the arenas share one concurrency discipline (update.go):
// queries read them without locks; updates mutate them under the cluster's
// writer lock while no query runs.
//
// The package provides the operators the paper's Algorithm 1 needs —
// Cloud.Load of a local root (Machine.LoadLocal), Index.getID
// (Machine.LocalIDs) and Index.hasLabel in its batched form (LabelBatch,
// Trinity's message merging) — plus the label-pair preprocessing of §5.3:
// one table, keyed by label pair, of the machine pairs that edges with
// those labels join, from which the planner builds cluster graphs.
package memcloud

import (
	"math"

	"stwig/internal/graph"
)

// Partitioner decides which machine a vertex is placed on. The cluster asks
// once per vertex and records the answer in its tag table, so Owner
// need not be fast and is never called on a lookup path. The paper
// emphasizes that results hold under random partitioning ("each node ... is
// assigned to a machine by a hashing function", §4.3), which
// HashPartitioner implements.
type Partitioner interface {
	// Owner returns the machine index owning v, in [0, Machines()).
	Owner(v graph.NodeID) int
	// Machines returns the number of partitions.
	Machines() int
}

// HashPartitioner spreads vertices with a Fibonacci multiplicative hash so
// that consecutively numbered vertices (which generators emit) do not land
// on the same machine in runs.
type HashPartitioner struct {
	K int
}

// Owner implements Partitioner.
func (p HashPartitioner) Owner(v graph.NodeID) int {
	h := uint64(v) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(p.K))
}

// Machines implements Partitioner.
func (p HashPartitioner) Machines() int { return p.K }

// BFSPartitioner assigns vertices to machines by chunked breadth-first
// traversal: contiguous BFS regions land on the same machine, so
// neighborhoods mostly stay machine-local. The paper deliberately avoids
// relying on any particular partitioning ("our performance results are
// obtained in the setting where the graph is randomly partitioned", §4.3),
// but notes load sets profit from data distribution — this partitioner is
// the locality end of that spectrum, used by the ablation experiments.
//
// Build one with NewBFSPartitioner; it precomputes the full assignment.
type BFSPartitioner struct {
	k      int
	owners []uint8
}

// NewBFSPartitioner partitions g's vertices into k balanced BFS chunks.
func NewBFSPartitioner(g *graph.Graph, k int) *BFSPartitioner {
	n := g.NumNodes()
	owners := make([]uint8, n)
	per := n/int64(k) + 1
	assigned := int64(0)
	current := 0
	visited := make([]bool, n)
	var queue []graph.NodeID
	assign := func(v graph.NodeID) {
		owners[v] = uint8(current)
		assigned++
		if assigned%per == 0 && current < k-1 {
			current++
		}
	}
	for start := int64(0); start < n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], graph.NodeID(start))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			assign(v)
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return &BFSPartitioner{k: k, owners: owners}
}

// Owner implements Partitioner. Vertices added after construction (dynamic
// updates) fall back to a hash placement.
func (p *BFSPartitioner) Owner(v graph.NodeID) int {
	if int64(v) < int64(len(p.owners)) {
		return int(p.owners[v])
	}
	return HashPartitioner{K: p.k}.Owner(v)
}

// Machines implements Partitioner.
func (p *BFSPartitioner) Machines() int { return p.k }

// RangePartitioner assigns contiguous ID ranges to machines. Useful in tests
// where partition placement must be predictable, and as a worst-case
// contrast to hash partitioning in ablation benches. Cluster mode lifts it
// one level up: it divides the id space among shard processes, each of which
// asks Range for the ids it answers for.
type RangePartitioner struct {
	K int
	N int64 // total vertex count
}

// per is the width of every range but the last: ⌈N/K⌉.
func (p RangePartitioner) per() int64 { return (p.N + int64(p.K) - 1) / int64(p.K) }

// Owner implements Partitioner.
func (p RangePartitioner) Owner(v graph.NodeID) int {
	per := p.per()
	if per == 0 {
		return 0
	}
	return min(int(int64(v)/per), p.K-1)
}

// Range returns the ids machine i owns, [lo, hi): Owner(v) == i exactly when
// lo <= v < hi. The last range is open-ended (hi is the largest NodeID), so
// ids at or past N — vertices added after N was read — land on the last
// machine; with N = 0 there is nothing to divide, and that machine is the
// first as well: machine 0 owns every id and the others none.
func (p RangePartitioner) Range(i int) (lo, hi graph.NodeID) {
	per := p.per()
	if per == 0 {
		if i == 0 {
			return 0, math.MaxInt64
		}
		return 0, 0
	}
	lo, hi = graph.NodeID(int64(i)*per), graph.NodeID(int64(i+1)*per)
	if i == p.K-1 {
		hi = math.MaxInt64
	}
	return lo, hi
}

// Machines implements Partitioner.
func (p RangePartitioner) Machines() int { return p.K }
