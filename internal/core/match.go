package core

import (
	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// STwigMatch is one matched STwig in factored form: a root data vertex and,
// for each leaf of the STwig, the set of data vertices that can play that
// leaf. Algorithm 1 returns {n} × S_l1 × ... × S_lk; keeping the factors
// instead of materializing the product is what keeps intermediate results
// small — the product is expanded lazily during the join, under the match
// budget.
type STwigMatch struct {
	Root     graph.NodeID
	LeafSets [][]graph.NodeID
}

// ExpandedCount returns the number of tuples this factored match denotes
// (ignoring injectivity), saturating at maxCount.
func (m STwigMatch) ExpandedCount() int64 {
	const maxCount = int64(1) << 40
	total := int64(1)
	for _, s := range m.LeafSets {
		total *= int64(len(s))
		if total > maxCount {
			return maxCount
		}
	}
	return total
}

// words returns the number of 8-byte words needed to ship this match
// (root + per-leaf lengths + leaf candidates); used for network accounting
// in the exchange phase.
func (m STwigMatch) words() int {
	w := 1 + len(m.LeafSets)
	for _, s := range m.LeafSets {
		w += len(s)
	}
	return w
}

// matchSTwigOnMachine is Algorithm 1 (MatchSTwig) executed on one machine,
// extended with the binding filters of §4.2:
//
//	Sr ← Index.getID(r)            — local string index, optionally ∩ H_root
//	for each n in Sr:
//	    c ← Cloud.Load(n)          — local: the root is a local vertex
//	    for each li in L:
//	        S_li ← {m ∈ c.children : Index.hasLabel(m, li)}  ∩ H_li
//	    R ← R ∪ {n} × S_l1 × ... × S_lk     (kept factored)
//
// Neighbor label checks across all roots of the step are merged into one
// batch per remote owner — Trinity's "message merging and batch
// transmission" (§2.2), which turns tens of thousands of per-root round
// trips into at most machines-1 messages per STwig step.
//
// The run's restriction applies wherever its query vertex is matched — as
// the root in pass 1, as a leaf in pass 2: only data vertices of the run's
// slice are candidates, bindings or no bindings. rebind then carries the cut
// to every later STwig, and the relations carry it to the join.
//
// Pass 1 writes into ms, the machine's scratch of the run; the returned
// matches reference none of it.
func matchSTwigOnMachine(m *memcloud.Machine, t STwig, labels []graph.LabelID, b *Bindings, cut restriction, ms *machineScratch) []STwigMatch {
	cells, nbrLabels := gatherRootCells(m, t, labels, b, cut, ms)
	return matchCells(cells, nbrLabels, t, labels, b, cut)
}

// restriction is what makes a run produce one slice of the answer: only
// data vertices in ids may play query vertex vertex. An unsliced run is the
// same restriction with the whole id space.
type restriction struct {
	vertex int
	ids    idRange
}

// rangeOf returns the ids that may play query vertex v.
func (c restriction) rangeOf(v int) idRange {
	if v == c.vertex {
		return c.ids
	}
	return wholeIDSpace
}

// rootCell is one surviving root's neighborhood, positioned in the step's
// label buffer.
type rootCell struct {
	id    graph.NodeID
	nbrs  []graph.NodeID // aliases the arena
	start int            // offset of nbrs' labels in the label buffer
}

// gatherRootCells is pass 1: for every surviving root, resolve its
// neighbors' labels — cell by cell, straight off the arena — through one
// label batch that is charged to the machine's ms.net once when the pass
// ends. This is where the step's label traffic happens. The returned slices
// live in ms until the machine's next step.
func gatherRootCells(m *memcloud.Machine, t STwig, labels []graph.LabelID, b *Bindings, cut restriction, ms *machineScratch) ([]rootCell, []graph.LabelID) {
	cells, nbrLabels := ms.cells[:0], ms.labels[:0]
	batch := m.LabelBatch(&ms.net)
	// The index lists its ids in ascending order, so the slice of a
	// restricted root is found, not filtered: no cell outside it is loaded.
	for _, n := range cut.rangeOf(t.Root).cut(m.LocalIDs(labels[t.Root])) {
		if b != nil && !b.Allows(t.Root, n) {
			continue
		}
		cell, ok := m.LoadLocal(n)
		if !ok {
			continue // cannot happen: the index only lists local vertices
		}
		cells = append(cells, rootCell{id: n, nbrs: cell.Neighbors, start: len(nbrLabels)})
		nbrLabels = batch.Resolve(cell.Neighbors, nbrLabels)
	}
	batch.Flush()
	ms.cells, ms.labels = cells, nbrLabels
	return cells, nbrLabels
}

// Smallest blocks matchCells carves leaf sets and their headers from.
const (
	minLeafIDBlock  = 64
	minLeafSetBlock = 16
)

// matchCells is pass 2: per root cell, build factored leaf sets from the
// resolved labels.
//
// Leaf sets and their per-match headers are carved from blocks that double
// in size, so a step costs O(log matches) allocations and a root that
// fails costs none: a root's candidates are appended behind the sets
// already handed out, and cut off again if the root fails.
func matchCells(cells []rootCell, nbrLabels []graph.LabelID, t STwig, labels []graph.LabelID, b *Bindings, cut restriction) []STwigMatch {
	var out []STwigMatch
	var ids []graph.NodeID    // current ID block; len marks what is in use
	var sets [][]graph.NodeID // current header block, likewise
	nLeaves := len(t.Leaves)
	var endsBuf [8]int
rootLoop:
	for _, rc := range cells {
		// The root's candidates are ids[mark:], leaf i's ending ends[i]
		// candidates in.
		mark := len(ids)
		ends := endsBuf[:0]
		for _, leaf := range t.Leaves {
			want := labels[leaf]
			within := cut.rangeOf(leaf)
			before := len(ids) - mark
			for j, nb := range rc.nbrs {
				if nbrLabels[rc.start+j] != want {
					continue
				}
				if nb == rc.id {
					continue // a vertex cannot match both root and leaf
				}
				if !within.contains(nb) {
					continue
				}
				if b != nil && !b.Allows(leaf, nb) {
					continue
				}
				if len(ids) == cap(ids) {
					// Block full: this root's candidates move to a new one;
					// earlier matches keep the old block alive.
					grown := make([]graph.NodeID, len(ids)-mark, max(2*cap(ids), minLeafIDBlock))
					copy(grown, ids[mark:])
					ids, mark = grown, 0
				}
				ids = append(ids, nb)
			}
			if len(ids)-mark == before {
				ids = ids[:mark]
				continue rootLoop
			}
			ends = append(ends, len(ids)-mark)
		}
		if cap(sets)-len(sets) < nLeaves {
			sets = make([][]graph.NodeID, 0, max(nLeaves, 2*cap(sets), minLeafSetBlock))
		}
		leafSets := sets[len(sets) : len(sets)+nLeaves : len(sets)+nLeaves]
		lo := mark
		for i, end := range ends {
			leafSets[i] = ids[lo : mark+end : mark+end]
			lo = mark + end
		}
		if nLeaves > 1 && !injectivelySatisfiable(leafSets) {
			ids = ids[:mark]
			continue
		}
		sets = sets[:len(sets)+nLeaves]
		out = append(out, STwigMatch{Root: rc.id, LeafSets: leafSets})
	}
	return out
}

// injectivelySatisfiable performs a cheap necessary check that distinct
// leaves can take distinct values: a Hall-condition approximation that
// rejects matches whose union of leaf candidates is smaller than the leaf
// count. (The join enforces exact injectivity; this only prunes obviously
// dead factored matches early.) It stops at the first len(leafSets)
// distinct IDs, so it inspects O(leaves²) candidates however long the sets.
func injectivelySatisfiable(leafSets [][]graph.NodeID) bool {
	var buf [8]graph.NodeID
	distinct := buf[:0]
	for _, s := range leafSets {
	nextID:
		for _, id := range s {
			for _, seen := range distinct {
				if seen == id {
					continue nextID
				}
			}
			distinct = append(distinct, id)
			if len(distinct) >= len(leafSets) {
				return true
			}
		}
	}
	return len(distinct) >= len(leafSets)
}
