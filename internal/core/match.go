package core

import (
	"context"

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
// A root's cell is either in ID order or, for a hub of more than 1024
// neighbours, in (label, id) order (memcloud.Cell.LabelOrdered). An ID-
// ordered cell is one pass: each neighbour's label is read once and
// compared with every leaf's, so a neighbour whose label two leaves share
// is a candidate of both. In a label-ordered cell a leaf's candidates are
// the run of its label, found by binary search over the neighbours' tags;
// two leaves that share a label get the same run. Either way a leaf's
// candidates ascend by ID. On power-law graphs the hubs hold most
// neighbours of most roots, so the search skips most label reads. The
// modelled cost is the same for both layouts: a root's label checks are
// charged per neighbour (LabelBatch.Charge), whatever was read. The checks
// across all roots of the step are merged into one batch per remote owner
// — Trinity's "message merging and batch transmission" (§2.2), which turns
// tens of thousands of per-root round trips into at most machines-1
// messages per STwig step — charged to ms.net once when the step ends.
//
// The run's restriction applies wherever its query vertex is matched — as
// the root or as a leaf: only data vertices of the run's slice are
// candidates, bindings or no bindings. rebind then carries the cut to every
// later STwig, and the relations carry it to the join.
//
// A root's candidates collect in ms, the machine's scratch of the run, and
// are copied out only if the root matches: the returned matches reference
// none of ms. Leaf sets and their per-match headers are carved from blocks
// that double in size, so a step costs O(log matches) allocations and a
// root that fails costs none.
//
// After every abortPoll roots it polls ctxErr (a shorter step is left
// to the caller's check after it): an aborted step stops where it is, and
// the caller returns the error instead of its matches.
func matchSTwigOnMachine(ctx context.Context, m *memcloud.Machine, t STwig, labels []graph.LabelID, b *Bindings, cut restriction, ms *machineScratch) []STwigMatch {
	leaves, cands := ms.fitLeaves(t, labels, cut)
	batch := m.LabelBatch(&ms.net)
	var out []STwigMatch
	var ids []graph.NodeID    // current ID block; len marks what is in use
	var sets [][]graph.NodeID // current header block, likewise
	// The index lists its ids in ascending order, so the slice of a
	// restricted root is found, not filtered: no cell outside it is loaded.
rootLoop:
	for r, n := range cut.rangeOf(t.Root).cut(m.LocalIDs(labels[t.Root])) {
		if r%abortPoll == abortPoll-1 && ctxErr(ctx) != nil {
			break // the caller returns the error
		}
		if b != nil && !b.Allows(t.Root, n) {
			continue
		}
		cell, ok := m.LoadLocal(n)
		if !ok {
			continue // cannot happen: the index only lists local vertices
		}
		batch.Charge(cell)
		for i := range cands {
			cands[i] = cands[i][:0]
		}
		if cell.LabelOrdered() {
			for i := range leaves {
				lf := &leaves[i]
				for _, w := range labelRun(&batch, cell.Neighbors, lf.label) {
					nb := graph.NodeID(w)
					if nb != n && lf.within.contains(nb) && (b == nil || b.Allows(lf.vertex, nb)) {
						cands[i] = append(cands[i], nb)
					}
				}
				if len(cands[i]) == 0 {
					break // the root fails; the check below skips it
				}
			}
		} else {
			for _, w := range cell.Neighbors {
				nb := graph.NodeID(w)
				l := batch.Label(nb)
				if nb == n {
					continue // a vertex cannot match both root and leaf
				}
				for i := range leaves {
					lf := &leaves[i]
					if l == lf.label && lf.within.contains(nb) && (b == nil || b.Allows(lf.vertex, nb)) {
						cands[i] = append(cands[i], nb)
					}
				}
			}
		}
		total := 0
		for _, c := range cands {
			if len(c) == 0 {
				continue rootLoop
			}
			total += len(c)
		}
		if len(cands) > 1 && !injectivelySatisfiable(cands) {
			continue
		}
		if cap(ids)-len(ids) < total {
			// Earlier matches keep the old block alive.
			ids = make([]graph.NodeID, 0, max(2*cap(ids), minLeafIDBlock, total))
		}
		if cap(sets)-len(sets) < len(leaves) {
			sets = make([][]graph.NodeID, 0, max(len(leaves), 2*cap(sets), minLeafSetBlock))
		}
		leafSets := sets[len(sets) : len(sets)+len(leaves) : len(sets)+len(leaves)]
		sets = sets[:len(sets)+len(leaves)]
		for i, c := range cands {
			lo := len(ids)
			ids = append(ids, c...)
			leafSets[i] = ids[lo:len(ids):len(ids)]
		}
		out = append(out, STwigMatch{Root: n, LeafSets: leafSets})
	}
	batch.Flush()
	return out
}

// labelRun returns the run of neighbours labelled l in nbrs, a cell in
// (label, id) order: two binary searches over the neighbours' tags, for
// the first label not below l and the first above it.
func labelRun(batch *memcloud.LabelBatch, nbrs []uint32, l graph.LabelID) []uint32 {
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if batch.Label(graph.NodeID(nbrs[mid])) < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	hi = len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if batch.Label(graph.NodeID(nbrs[mid])) <= l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return nbrs[start:lo]
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

// Smallest blocks matchSTwigOnMachine carves leaf sets and their headers
// from.
const (
	minLeafIDBlock  = 64
	minLeafSetBlock = 16
)

// abortPoll is how many roots matchSTwigOnMachine, and how many polls a
// joiner, take between two reads of the deadline (ctxErr).
const abortPoll = 1024

// leafFilter is what a neighbour must be to play one leaf of the STwig a
// machine is matching.
type leafFilter struct {
	vertex int
	label  graph.LabelID
	within idRange
}

// fitLeaves sets ms up for STwig t: one filter per leaf, and per leaf a
// candidate buffer, its memory kept from earlier steps.
func (ms *machineScratch) fitLeaves(t STwig, labels []graph.LabelID, cut restriction) ([]leafFilter, [][]graph.NodeID) {
	n := len(t.Leaves)
	if len(ms.leaves) < n {
		ms.leaves = make([]leafFilter, n)
		ms.cands = append(ms.cands, make([][]graph.NodeID, n-len(ms.cands))...)
	}
	leaves := ms.leaves[:n]
	for i, v := range t.Leaves {
		leaves[i] = leafFilter{vertex: v, label: labels[v], within: cut.rangeOf(v)}
	}
	return leaves, ms.cands[:n]
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
