package memcloud

import (
	"math/bits"
	"slices"
	"unsafe"

	"stwig/internal/graph"
)

// Store is one machine's share of the graph, laid out Trinity-style: a
// single adjacency arena plus a fixed-width cell directory, instead of one
// heap object per vertex. §2.2 reports 50M 35-byte objects costing 3.9 GB on
// a managed heap versus 1.6 GB in a memory trunk; the flat layout here is
// the same idea and is what lets the load benchmark (Table 2) scale.
//
// The directory is addressed by slot, not by vertex ID: a machine's i-th
// vertex (in ascending ID order at load, in arrival order afterwards) lives
// in dir[i], and the cluster's address tables (cluster.go) map a vertex ID
// to its owner and label (the tag table) and its slot (the slot table). A
// label lookup is therefore one array read and an adjacency lookup three — no hash, no per-entry overhead — and the
// directory costs exactly cap(dir)·sizeof(cellRef) bytes.
//
// An arena entry is a neighbour's ID in 4 bytes, as is a slot: the cluster
// holds at most MaxNodes = 2^32 vertices (4.29 G, past the paper's billion),
// so every ID and every machine's slot fits one. Code that reads an entry
// widens it to a graph.NodeID; leaf sets, relations and the wire keep the
// full width.
//
// A cell lists its neighbours in ascending ID order, unless it has more
// than labelOrderBound of them: such a hub cell is kept in (label, id)
// order, so exploration finds a leaf's candidates in it by binary search
// over the neighbours' tags instead of reading every one (Cell.LabelOrdered).
// Within one label the IDs still ascend. The order is a layout of the cell,
// not an index: it costs no byte.
//
// Like the arena, the directory follows the single-writer / quiesced-reader
// discipline described in update.go: queries read it without locks, updates
// append to or rewrite it under the cluster's writer lock while no query
// runs.
type Store struct {
	dir   []cellRef // dir[slot]
	arena []uint32  // concatenated adjacency of all local vertices
	// garbage counts the arena words no cell covers: the old copies of
	// relocated cells and the tails that removals shrank off.
	garbage int64
}

// cellRef locates a cell in the arena. local counts the neighbours held by
// the cell's own machine, which a label batch does not charge for; it sits
// in what would otherwise be the struct's padding, so a cellRef stays 16
// bytes.
type cellRef struct {
	off   int64
	deg   int32
	local int32
}

// labelOrderBound is the degree above which a cell is kept in (label, id)
// order. It is not a setting: only tests lower it, to order small cells.
var labelOrderBound = 1024

// labelOrdered reports whether a cell of deg neighbours is kept in (label,
// id) order.
func labelOrdered(deg int) bool { return deg > labelOrderBound }

// idBits is the width of a vertex ID in a cellKey: an arena entry's.
const idBits = 32

// cellKey is neighbour id's rank in a label-ordered cell: its label, then
// its ID. The label's low labelBits keep LabelID order, NoLabel (all ones)
// last, which is the order the matcher's binary search assumes.
func cellKey(t cellTag, id uint32) uint64 {
	return uint64(t.label()&(1<<labelBits-1))<<idBits | uint64(id)
}

// orderByLabel puts nbrs, a cell in ID order, in (label, id) order: a
// stable sort of their keys by label. It returns scratch, grown to the
// two key buffers the sort needs, for the next call to reuse.
func orderByLabel(nbrs []uint32, tags []cellTag, scratch []uint64) []uint64 {
	n := len(nbrs)
	scratch = slices.Grow(scratch[:0], 2*n)[:2*n]
	keys := scratch[:n]
	var all uint64 // every key's bits: the sort stops at the highest label bit set
	for i, w := range nbrs {
		keys[i] = cellKey(tags[w], w)
		all |= keys[i]
	}
	sorted := radixSort(keys, scratch[n:], idBits, bits.Len64(all))
	for i, k := range sorted {
		nbrs[i] = uint32(k)
	}
	return scratch
}

// radixSort sorts a stably by bits [lo, hi) of its elements, one byte per
// pass, through buf, which must be as long as a. It returns the sorted
// elements: a or buf. A big cell is sorted this way — by label when it is
// ordered, back by ID for a snapshot — in time linear in its degree.
func radixSort[T ~int64 | ~uint64](a, buf []T, lo, hi int) []T {
	for shift := lo; shift < hi; shift += 8 {
		var count [256]int
		for _, x := range a {
			count[byte(x>>shift)]++
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, x := range a {
			d := byte(x >> shift)
			buf[count[d]] = x
			count[d]++
		}
		a, buf = buf, a
	}
	return a
}

// Cell is the unit returned by Cloud.Load: a vertex's label and the IDs of
// all its neighbors (local or not), in the cell's order (LabelOrdered).
// Neighbors aliases the arena and must not be modified.
type Cell struct {
	ID    graph.NodeID
	Label graph.LabelID
	// local is the count of neighbours on the vertex's own machine.
	local int32
	// Neighbors are the 4-byte arena entries; graph.NodeID(Neighbors[i])
	// is a neighbour's ID.
	Neighbors []uint32
}

// LabelOrdered reports whether Neighbors is in (label, id) order — labels
// ascending as LabelIDs, NoLabel last, and IDs ascending within a label —
// rather than in ID order. Only a cell of more than labelOrderBound
// neighbours is.
func (c Cell) LabelOrdered() bool { return labelOrdered(len(c.Neighbors)) }

// put appends an empty cell and returns the slot it occupies.
func (s *Store) put() uint32 {
	s.dir = append(s.dir, cellRef{off: int64(len(s.arena))})
	return uint32(len(s.dir) - 1)
}

// neighbors returns the adjacency of the vertex in slot, aliasing the arena.
func (s *Store) neighbors(slot uint32) []uint32 {
	ref := s.dir[slot]
	return s.arena[ref.off : ref.off+int64(ref.deg)]
}

// numNodes returns the number of locally stored vertices.
func (s *Store) numNodes() int64 { return int64(len(s.dir)) }

// memoryBytes reports the bytes the store holds resident: the directory's
// and the arena's full capacity, including append headroom.
func (s *Store) memoryBytes() int64 {
	return int64(cap(s.dir))*int64(unsafe.Sizeof(cellRef{})) +
		int64(cap(s.arena))*int64(unsafe.Sizeof(uint32(0)))
}
