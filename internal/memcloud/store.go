package memcloud

import (
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
// directory costs exactly cap(dir)·sizeof(cellRef) bytes. Slots are uint32,
// which bounds a machine at 4.29 G vertices.
//
// Like the arena, the directory follows the single-writer / quiesced-reader
// discipline described in update.go: queries read it without locks, updates
// append to or rewrite it under the cluster's writer lock while no query
// runs.
type Store struct {
	dir   []cellRef      // dir[slot]
	arena []graph.NodeID // concatenated adjacency of all local vertices
}

type cellRef struct {
	off int64
	deg int32
}

// maxSlots is the number of vertices one machine can address.
const maxSlots = 1 << 32

// Cell is the unit returned by Cloud.Load: a vertex's label and the IDs of
// all its neighbors (local or not). For local loads, Neighbors aliases the
// arena and must not be modified; remote loads receive a copy.
type Cell struct {
	ID        graph.NodeID
	Label     graph.LabelID
	Neighbors []graph.NodeID
}

// newStore sizes the directory and the arena for a known partition.
func newStore(nodes, arenaWords int64) *Store {
	return &Store{
		dir:   make([]cellRef, 0, nodes),
		arena: make([]graph.NodeID, 0, arenaWords),
	}
}

// put appends a vertex cell, copying its neighbors onto the arena tail, and
// returns the slot it now occupies.
func (s *Store) put(neighbors []graph.NodeID) uint32 {
	slot := uint32(len(s.dir))
	off := int64(len(s.arena))
	s.arena = append(s.arena, neighbors...)
	s.dir = append(s.dir, cellRef{off: off, deg: int32(len(neighbors))})
	return slot
}

// neighbors returns the adjacency of the vertex in slot, aliasing the arena.
func (s *Store) neighbors(slot uint32) []graph.NodeID {
	ref := s.dir[slot]
	return s.arena[ref.off : ref.off+int64(ref.deg)]
}

// numNodes returns the number of locally stored vertices.
func (s *Store) numNodes() int64 { return int64(len(s.dir)) }

// memoryBytes reports the bytes the store holds resident: the directory's
// and the arena's full capacity, including append headroom.
func (s *Store) memoryBytes() int64 {
	return int64(cap(s.dir))*int64(unsafe.Sizeof(cellRef{})) +
		int64(cap(s.arena))*int64(unsafe.Sizeof(graph.NodeID(0)))
}
