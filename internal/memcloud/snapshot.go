package memcloud

import (
	"fmt"

	"stwig/internal/graph"
)

// Checkpoint support: a consistent snapshot of the cluster's live graph —
// everything dynamic updates have produced since load — rendered back into
// an immutable graph.Graph so it can be serialized with graph.WriteBinary
// and reloaded onto a fresh cluster at recovery. Together with the update
// journal (internal/journal) this is the LogBase-style durability story:
// checkpoint bounds replay, journal carries everything since.

// SnapshotGraph materializes the cluster's current graph: every vertex in
// [0, NumNodes()) with its live label and adjacency, as an undirected
// graph. It takes the update lock, so the snapshot is consistent with
// respect to concurrent mutations; readers are unaffected. Vertex IDs are
// preserved exactly (they are dense by construction), so a cluster loaded
// from the snapshot serves identical match sets.
func (c *Cluster) SnapshotGraph() (*graph.Graph, error) {
	if !c.loaded {
		return nil, errNotLoaded
	}
	c.upd.mu.Lock()
	defer c.upd.mu.Unlock()
	b := graph.NewBuilder(graph.Undirected())
	for _, a := range c.addr {
		b.AddNode(c.labels.Name(c.machines[a.owner].store.label(a.slot)))
	}
	for v, a := range c.addr {
		id := graph.NodeID(v)
		for _, u := range c.machines[a.owner].store.neighbors(a.slot) {
			if id < u {
				if err := b.AddEdge(id, u); err != nil {
					return nil, fmt.Errorf("memcloud: snapshot: edge (%d,%d): %w", id, u, err)
				}
			}
		}
	}
	return b.Build(), nil
}

// RestoreEpoch seeds the cluster's mutation epoch, so that a recovered
// cluster (checkpoint load + journal replay) reports the same epoch the
// pre-crash cluster did — replaying k mutations over a checkpoint taken at
// epoch e lands on exactly e+k. It must be called before the cluster starts
// serving; once queries run, moving the epoch backwards would resurrect
// stale cached plans.
func (c *Cluster) RestoreEpoch(e uint64) { c.epoch.Store(e) }
