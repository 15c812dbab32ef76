package memcloud

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"stwig/internal/graph"
)

// Dynamic updates. Table 1 lists the STwig approach's update cost as O(1):
// because the only index is the per-machine string index, adding a vertex
// touches one posting list, and adding an edge touches two adjacency cells
// — no structural index to rebuild. This file implements that claim.
//
// Storage follows the log-structured discipline of a memory trunk: growing
// a cell's adjacency appends a fresh copy at the arena tail and retargets
// the directory entry; the superseded region becomes garbage. Removals
// shrink in place. An insertion that would grow a full arena holding
// enough garbage compacts it into the same capacity instead (compactShare),
// so a stream of updates that adds and removes edges runs in bounded
// memory; CompactAll reclaims everything at once.
//
// Concurrency: updates take the cluster's writer lock; the query read path
// stays lock-free by design, so updates MUST NOT run concurrently with
// queries (single-writer, quiesced-reader — the usual discipline for
// epoch-style in-memory stores; a production system would wrap this in
// epochs or shard locks). The upd.mu below serializes writers only;
// stwigd's per-namespace reader gate (internal/server) is what quiesces
// readers around each writer window.

// UpdateStats counts applied mutations and storage garbage.
type UpdateStats struct {
	NodesAdded   uint64
	EdgesAdded   uint64
	EdgesRemoved uint64
	// GarbageWords is the arena space no cell covers — superseded by cell
	// relocations or shrunk off by removals — and reclaimable by
	// compaction, in 4-byte arena entries.
	GarbageWords int64
}

var errNotLoaded = fmt.Errorf("memcloud: cluster not loaded")

// locateLocked resolves an update's vertex ID to its owner machine and
// address, rejecting IDs outside [0, NumNodes()) — they arrive from
// the network — as errors. Caller holds upd.mu.
func (c *Cluster) locateLocked(v graph.NodeID) (*Machine, cellAddr, error) {
	a, ok := c.locate(v)
	if !ok {
		return nil, cellAddr{}, fmt.Errorf("memcloud: vertex %d does not exist", v)
	}
	return c.machines[a.owner()], a, nil
}

type updateState struct {
	mu    sync.Mutex
	stats UpdateStats
}

// AddNode inserts a new vertex with the given label and returns its ID.
// The label may be new; it is interned into the cluster's label table,
// unless the table already holds MaxLabels labels.
func (c *Cluster) AddNode(label string) (graph.NodeID, error) {
	if !c.loaded {
		return graph.InvalidNode, errNotLoaded
	}
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	return c.addNodeLocked(label)
}

func (c *Cluster) addNodeLocked(label string) (graph.NodeID, error) {
	id := graph.NodeID(len(c.tags))
	if int64(id) >= nodeCap {
		return graph.InvalidNode, fmt.Errorf("memcloud: new vertex %d would be vertex number %d, more than the %d a cluster holds", id, id+1, nodeCap)
	}
	// The one time the placement policy is asked about this vertex.
	m := c.machines[c.part.Owner(id)]
	l, ok := c.labels.Lookup(label)
	if !ok {
		if n := c.labels.Len(); n >= labelCap {
			return graph.InvalidNode, fmt.Errorf("memcloud: label %q would be label %d, more than the %d a cluster holds", label, n+1, labelCap)
		}
		l = c.labels.Intern(label)
	}
	c.tags = append(c.tags, newCellTag(m.id, l))
	c.slots = append(c.slots, m.store.put())
	m.index.insertSorted(id, l)
	c.upd.stats.NodesAdded++
	c.epoch.Add(1)
	return id, nil
}

// AddEdge inserts an undirected edge between existing vertices u and v,
// updating both adjacency cells and the cross-label-pair table. Duplicate
// edges and self-loops are rejected.
func (c *Cluster) AddEdge(u, v graph.NodeID) error {
	if !c.loaded {
		return errNotLoaded
	}
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	return c.addEdgeLocked(u, v)
}

func (c *Cluster) addEdgeLocked(u, v graph.NodeID) error {
	if u == v {
		return fmt.Errorf("memcloud: self-loop (%d,%d)", u, v)
	}
	mu, au, err := c.locateLocked(u)
	if err != nil {
		return err
	}
	mv, av, err := c.locateLocked(v)
	if err != nil {
		return err
	}
	if mu.store.hasNeighbor(au.slot, v) {
		return fmt.Errorf("memcloud: edge (%d,%d) already exists", u, v)
	}
	mu.store.insertNeighbor(au.slot, uint32(v), c.tags, mu == mv)
	mv.store.insertNeighbor(av.slot, uint32(u), c.tags, mu == mv)
	// Cross-pair maintenance is additive-only: removing the last edge of a
	// label pair leaves a stale bit, which only ever makes load sets larger
	// (correctness preserved, communication slightly pessimistic). An edge
	// inside one machine records nothing.
	if mu != mv {
		c.cross.add(au.label(), av.label(), mu.id, mv.id)
	}
	c.upd.stats.EdgesAdded++
	c.epoch.Add(1)
	return nil
}

// RemoveEdge deletes the undirected edge (u, v).
func (c *Cluster) RemoveEdge(u, v graph.NodeID) error {
	if !c.loaded {
		return errNotLoaded
	}
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	return c.removeEdgeLocked(u, v)
}

func (c *Cluster) removeEdgeLocked(u, v graph.NodeID) error {
	mu, au, err := c.locateLocked(u)
	if err != nil {
		return err
	}
	mv, av, err := c.locateLocked(v)
	if err != nil {
		return err
	}
	if !mu.store.hasNeighbor(au.slot, v) {
		return fmt.Errorf("memcloud: edge (%d,%d) does not exist", u, v)
	}
	mu.store.removeNeighbor(au.slot, uint32(v), mu == mv)
	mv.store.removeNeighbor(av.slot, uint32(u), mu == mv)
	c.upd.stats.EdgesRemoved++
	c.epoch.Add(1)
	return nil
}

// MutationOp selects the kind of one batched Mutation.
type MutationOp uint8

const (
	MutAddNode MutationOp = iota
	MutAddEdge
	MutRemoveEdge
)

func (op MutationOp) String() string {
	switch op {
	case MutAddNode:
		return "add_node"
	case MutAddEdge:
		return "add_edge"
	case MutRemoveEdge:
		return "remove_edge"
	}
	return fmt.Sprintf("MutationOp(%d)", uint8(op))
}

// Mutation is one dynamic update in batch form: AddNode carries Label,
// AddEdge and RemoveEdge carry U and V.
type Mutation struct {
	Op    MutationOp
	Label string
	U, V  graph.NodeID
}

// MutationResult reports one batched mutation's outcome. NodeID is set for
// successful AddNode mutations (InvalidNode otherwise); Epoch is the
// cluster's mutation epoch observed right after this mutation; Err carries
// per-mutation failures (missing vertex, duplicate edge, ...) without
// aborting the rest of the batch.
type MutationResult struct {
	NodeID graph.NodeID
	Epoch  uint64
	Err    error
}

// ApplyBatch applies muts in order under a single writer-lock acquisition —
// the amortization a batching dispatcher (stwigd's update pipeline) exists
// for: one lock round trip and one quiesced-reader window per batch instead
// of per mutation. Each mutation succeeds or fails individually; a conflict
// does not abort its successors. The same single-writer / quiesced-reader
// discipline as the one-shot methods applies to the batch as a whole.
func (c *Cluster) ApplyBatch(muts []Mutation) []MutationResult {
	out := make([]MutationResult, len(muts))
	if !c.loaded {
		for i := range out {
			out[i] = MutationResult{NodeID: graph.InvalidNode, Err: errNotLoaded}
		}
		return out
	}
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	for i, m := range muts {
		r := MutationResult{NodeID: graph.InvalidNode}
		switch m.Op {
		case MutAddNode:
			r.NodeID, r.Err = c.addNodeLocked(m.Label)
		case MutAddEdge:
			r.Err = c.addEdgeLocked(m.U, m.V)
		case MutRemoveEdge:
			r.Err = c.removeEdgeLocked(m.U, m.V)
		default:
			r.Err = fmt.Errorf("memcloud: unknown mutation op %d", m.Op)
		}
		r.Epoch = c.epoch.Load()
		out[i] = r
	}
	return out
}

// UpdateStats snapshots the mutation counters and the machines' garbage.
func (c *Cluster) UpdateStats() UpdateStats {
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	st := c.upd.stats
	for _, m := range c.machines {
		st.GarbageWords += m.store.garbage
	}
	return st
}

// CompactAll rewrites every machine's arena to hold its live cells and
// nothing more, returning the number of words reclaimed.
func (c *Cluster) CompactAll() int64 {
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	var reclaimed int64
	for _, m := range c.machines {
		s := m.store
		reclaimed += s.compact(len(s.arena) - int(s.garbage))
	}
	return reclaimed
}

// --- store-level mutation primitives ---

// hasNeighbor reports whether the adjacency of the vertex in slot contains
// nb.
func (s *Store) hasNeighbor(slot uint32, nb graph.NodeID) bool {
	return slices.Contains(s.neighbors(slot), uint32(nb))
}

// compactShare sets when an insertion compacts an arena instead of growing
// it: when the relocated cell does not fit in the arena's capacity and at
// least 1/compactShare of that capacity is garbage. append grows a large
// arena by about a quarter; an eighth is half of that, which an arena whose
// cells are relocated without net growth (edges added and removed again)
// reaches before it fills up, so it compacts rather than grows. Compacting
// gives back at least cap/compactShare words, so the next compaction is that
// many relocated words away: a bounded number of copies per word. Not a
// setting; only tests raise it, to compact whenever there is garbage.
var compactShare = 8

// insertNeighbor adds nb to the adjacency of the vertex in slot at its
// place in the cell's order, relocating the cell to the arena tail; a cell
// that grows past labelOrderBound is put in (label, id) order in its new
// copy. local says nb lives on the cell's machine.
func (s *Store) insertNeighbor(slot uint32, nb uint32, tags []cellTag, local bool) {
	ref := &s.dir[slot]
	if len(s.arena)+int(ref.deg)+1 > cap(s.arena) && s.garbage > 0 && s.garbage >= int64(cap(s.arena)/compactShare) {
		s.compact(cap(s.arena))
	}
	old := s.neighbors(slot)
	var at int
	if labelOrdered(len(old)) {
		at, _ = slices.BinarySearchFunc(old, cellKey(tags[nb], nb), func(x uint32, k uint64) int {
			return cmp.Compare(cellKey(tags[x], x), k)
		})
	} else {
		at, _ = slices.BinarySearch(old, nb)
	}
	newOff := int64(len(s.arena))
	s.arena = append(s.arena, old[:at]...)
	s.arena = append(s.arena, nb)
	s.arena = append(s.arena, old[at:]...)
	if cell := s.arena[newOff:]; !labelOrdered(len(old)) && labelOrdered(len(cell)) {
		orderByLabel(cell, tags, nil)
	}
	s.garbage += int64(ref.deg)
	ref.off, ref.deg = newOff, ref.deg+1
	if local {
		ref.local++
	}
}

// removeNeighbor deletes nb from the adjacency of the vertex in slot in
// place (shrinking the cell without relocation), keeping the cell's order;
// a cell that shrinks to labelOrderBound goes back to ID order. local says
// nb lives on the cell's machine.
func (s *Store) removeNeighbor(slot uint32, nb uint32, local bool) {
	adj := s.neighbors(slot)
	w := 0
	for _, x := range adj {
		if x != nb {
			adj[w] = x
			w++
		}
	}
	if labelOrdered(len(adj)) && !labelOrdered(w) {
		slices.Sort(adj[:w])
	}
	s.garbage += int64(len(adj) - w)
	s.dir[slot].deg = int32(w)
	if local {
		s.dir[slot].local--
	}
}

// compact rewrites the arena with only live cells, in slot order and each
// cell as it is, into a fresh arena of the given capacity (at least the
// live words), returning reclaimed words. Slot order is a function of the
// update history alone, so two clusters driven identically compact to
// identical arenas. The old arena is left as it was: a Cell read before
// the compaction still reads its neighbours.
func (s *Store) compact(capacity int) int64 {
	reclaimed := s.garbage
	newArena := make([]uint32, 0, capacity)
	for i := range s.dir {
		ref := &s.dir[i]
		off := int64(len(newArena))
		newArena = append(newArena, s.arena[ref.off:ref.off+int64(ref.deg)]...)
		ref.off = off
	}
	s.arena = newArena
	s.garbage = 0
	return reclaimed
}

// insertSorted adds id into the label's posting list keeping it sorted.
func (ix *StringIndex) insertSorted(id graph.NodeID, label graph.LabelID) {
	c := listIndex(label)
	if c >= len(ix.lists) {
		ix.lists = append(ix.lists, make([][]graph.NodeID, c+1-len(ix.lists))...)
	}
	ids := ix.lists[c]
	pos := len(ids)
	for i, x := range ids {
		if x >= id {
			pos = i
			break
		}
	}
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	ix.lists[c] = ids
}
