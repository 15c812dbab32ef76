package memcloud

import "stwig/internal/graph"

// Machine is one simulated cluster member: a partition's slab store plus its
// local string index. A query phase runs each machine once, on one of at
// most GOMAXPROCS workers (see Cluster.ParallelEach); a Machine's read API is
// safe for concurrent use after LoadGraph.
type Machine struct {
	id      int
	cluster *Cluster
	store   *Store
	index   *StringIndex
}

// ID returns the machine's cluster index.
func (m *Machine) ID() int { return m.id }

// Cluster returns the owning cluster.
func (m *Machine) Cluster() *Cluster { return m.cluster }

// LocalIDs is the paper's Index.getID(label) — only local vertices, sorted.
// The result aliases the index; callers must not modify it.
func (m *Machine) LocalIDs(label graph.LabelID) []graph.NodeID {
	return m.index.IDs(label)
}

// LocalLabelCount returns how many local vertices carry label.
func (m *Machine) LocalLabelCount(label graph.LabelID) int {
	return m.index.Count(label)
}

// NumLocalNodes returns the partition's vertex count.
func (m *Machine) NumLocalNodes() int64 { return m.store.numNodes() }

// Load is Cloud.Load(id) issued from this machine; remote vertices are
// fetched through the fabric and accounted.
func (m *Machine) Load(id graph.NodeID) (Cell, bool) {
	return m.cluster.Load(m.id, id)
}

// LoadLocal loads a cell only if this machine owns it.
func (m *Machine) LoadLocal(id graph.NodeID) (Cell, bool) {
	a, ok := m.cluster.locate(id)
	if !ok || a.owner() != m.id {
		return Cell{}, false
	}
	return m.cluster.cell(id, a), true
}

// HasLabel is Index.hasLabel(id, label) issued from this machine.
func (m *Machine) HasLabel(id graph.NodeID, label graph.LabelID) bool {
	return m.cluster.HasLabel(m.id, id, label)
}

// LabelsOfBatch resolves labels for ids into out[:0] with per-owner message
// batching, returning the filled slice.
func (m *Machine) LabelsOfBatch(ids []graph.NodeID, out []graph.LabelID) []graph.LabelID {
	return m.cluster.LabelsOfBatch(m.id, ids, out)
}

// LabelBatch starts a label batch issued from this machine.
func (m *Machine) LabelBatch() LabelBatch {
	return LabelBatch{c: m.cluster, from: m.id}
}

// Owns reports whether this machine owns vertex id.
func (m *Machine) Owns(id graph.NodeID) bool {
	return m.cluster.Owner(id) == m.id
}
