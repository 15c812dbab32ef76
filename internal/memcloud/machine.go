package memcloud

import "stwig/internal/graph"

// Machine is one simulated cluster member: a partition's slab store plus its
// local string index. A query phase runs each machine once, on one of at
// most GOMAXPROCS workers that the process parks between phases (see
// Cluster.ParallelEach); a Machine's read API is safe for concurrent use
// after a load.
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

// LoadLocal is the paper's Cloud.Load(id) for a vertex this machine owns;
// it finds nothing for any other.
func (m *Machine) LoadLocal(id graph.NodeID) (Cell, bool) {
	a, ok := m.cluster.locate(id)
	if !ok || a.owner() != m.id {
		return Cell{}, false
	}
	return m.cluster.cell(id, a), true
}

// LabelBatch starts a label batch issued from this machine whose Flush
// charges net.
func (m *Machine) LabelBatch(net *NetStats) LabelBatch {
	k := len(m.cluster.machines)
	others := (uint64(1)<<k - 1) &^ (1 << m.id)
	return LabelBatch{c: m.cluster, tags: m.cluster.tags, from: m.id, others: others, net: net}
}

// Owns reports whether this machine owns vertex id.
func (m *Machine) Owns(id graph.NodeID) bool {
	return m.cluster.Owner(id) == m.id
}
