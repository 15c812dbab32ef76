package memcloud

import (
	"io"
	"math/bits"
	"slices"

	"stwig/internal/graph"
)

// Checkpoint support: a consistent snapshot of the cluster's live graph —
// everything dynamic updates have produced since load — serialized in
// graph.WriteBinary's format so LoadBinary streams it onto a fresh cluster
// at recovery, with no graph.Graph in between. Together with the update
// journal (internal/journal) this is the LogBase-style durability story:
// checkpoint bounds replay, journal carries everything since.

// WriteSnapshot streams the cluster's current graph to w in graph.WriteBinary's
// format: every vertex in [0, NumNodes()) with its live label and adjacency,
// vertex IDs preserved exactly (they are dense by construction), so a cluster
// loaded from the stream serves identical match sets. Nothing is
// materialized — the cells are written where they lie, so a checkpoint costs
// its write buffer, not a second copy of the graph. It holds the update lock
// for the whole write, which makes the stream consistent with respect to
// concurrent mutations (readers are unaffected); hand it a file or a buffer,
// never a peer that can stall.
//
// The stream is marked undirected and carries each cell's adjacency in ID
// order — a label-ordered cell is sorted back into one reused buffer — so
// for the symmetric, loop-free adjacency that undirected loads and
// AddEdge maintain, byte for byte what building the edges {u,v | u<v} into an
// undirected graph.Graph and writing that produced.
func (c *Cluster) WriteSnapshot(w io.Writer) error {
	if !c.loaded {
		return errNotLoaded
	}
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	return graph.WriteBinaryFrom(w, c.snapshotSource())
}

// SnapshotBytes returns the exact length of the stream WriteSnapshot would
// write now, without writing it: one walk over the address tables and one
// over the directories, under the update lock.
func (c *Cluster) SnapshotBytes() int64 {
	if !c.loaded {
		return 0
	}
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	return graph.BinarySize(c.snapshotSource())
}

// snapshotSource prepares the cells for a snapshot. Labels are renumbered in
// order of first appearance by vertex ID: the numbering a graph built vertex
// by vertex gets, and the one recovery has always seen. An unlabelled vertex
// is written as NoLabel: its tag code, 0, keeps the NoLabel it starts with.
// The caller holds the update lock.
func (c *Cluster) snapshotSource() *snapshotSource {
	src := &snapshotSource{c: c, remap: make([]graph.LabelID, c.labels.Len()+1)}
	for i := range src.remap {
		src.remap[i] = graph.NoLabel
	}
	for _, t := range c.tags {
		if code := t.code(); code != 0 && src.remap[code] == graph.NoLabel {
			src.remap[code] = graph.LabelID(len(src.names))
			src.names = append(src.names, c.labels.Name(t.label()))
		}
	}
	return src
}

// snapshotSource reads the cluster's cells as a graph.BinarySource. The
// caller holds the update lock.
type snapshotSource struct {
	c     *Cluster
	names []string
	remap []graph.LabelID // tag code -> index into names, or NoLabel
	// scratch holds the two buffers Neighbors widens a cell into and sorts
	// a label-ordered one back into ID order with, reused from cell to
	// cell.
	scratch []graph.NodeID
}

func (s *snapshotSource) NumNodes() int64      { return int64(len(s.c.tags)) }
func (s *snapshotSource) Directed() bool       { return false }
func (s *snapshotSource) LabelNames() []string { return s.names }

func (s *snapshotSource) Label(v graph.NodeID) graph.LabelID {
	return s.remap[s.c.tags[v].code()]
}

func (s *snapshotSource) store(v graph.NodeID) *Store {
	return s.c.machines[s.c.tags[v].owner()].store
}

func (s *snapshotSource) Degree(v graph.NodeID) int {
	return int(s.store(v).dir[s.c.slots[v]].deg)
}

// Neighbors returns v's adjacency in ID order, widened into the reused
// buffer: the cell's entries, sorted there if the cell is label-ordered.
func (s *snapshotSource) Neighbors(v graph.NodeID) []graph.NodeID {
	nbrs := s.store(v).neighbors(s.c.slots[v])
	n := len(nbrs)
	s.scratch = slices.Grow(s.scratch[:0], 2*n)[:2*n]
	wide := s.scratch[:n]
	for i, w := range nbrs {
		wide[i] = graph.NodeID(w)
	}
	if !labelOrdered(n) {
		return wide
	}
	return radixSort(wide, s.scratch[n:], 0, bits.Len64(uint64(len(s.c.tags))))
}

// RestoreEpoch seeds the cluster's mutation epoch, so that a recovered
// cluster (checkpoint load + journal replay) reports the same epoch the
// pre-crash cluster did — replaying k mutations over a checkpoint taken at
// epoch e lands on exactly e+k. It must be called before the cluster starts
// serving; once queries run, moving the epoch backwards would let two
// different graphs report the same epoch.
func (c *Cluster) RestoreEpoch(e uint64) { c.epoch.Store(e) }
