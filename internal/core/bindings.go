package core

import (
	"math/bits"

	"stwig/internal/graph"
)

// Bindings is the exploration state of §4.2: for each query vertex v, the
// set H_v of data vertices still eligible to match v. A nil set means v is
// unbound (any vertex with the right label is eligible). Bindings only ever
// shrink as STwigs are processed — they are a sound pruning filter, never a
// source of answers ("They cannot produce answers on their own").
//
// Sets are bitsets over the dense data-vertex ID space: membership tests
// sit on the exploration hot path. There is one set per bound query vertex
// and one way to build it during a run: after every machine has matched an
// STwig, the proxy (rebind) sets the bits of all machines' matches into one
// set per covered vertex. Those sets come cleared from the run's
// exploreScratch and go back to it — cleared again — when they are replaced
// by a later step or when exploration ends (release), so a steady-state
// query allocates no numNodes-sized object. SetIDs, the standalone entry
// point, allocates its own set.
type Bindings struct {
	numNodes int64
	sets     []bitset
}

// NewBindings returns all-unbound bindings for nVertices query vertices
// over a data graph of numNodes dense vertex IDs.
func NewBindings(nVertices int, numNodes int64) *Bindings {
	return &Bindings{numNodes: numNodes, sets: make([]bitset, nVertices)}
}

// Bound reports whether query vertex v has been bound by a processed STwig.
func (b *Bindings) Bound(v int) bool { return b.sets[v] != nil }

// Allows reports whether data vertex id is still eligible for query vertex
// v. Unbound vertices allow everything.
func (b *Bindings) Allows(v int, id graph.NodeID) bool {
	s := b.sets[v]
	if s == nil {
		return true
	}
	return s.test(id)
}

// Size returns |H_v|, or -1 if v is unbound.
func (b *Bindings) Size(v int) int {
	if b.sets[v] == nil {
		return -1
	}
	return b.sets[v].popcount()
}

// SetIDs replaces H_v with the given vertices. The engine computes
// replacement sets from STwig results, which were themselves filtered
// through the previous bindings, so replacement is monotone shrinking for
// vertices already bound.
func (b *Bindings) SetIDs(v int, ids []graph.NodeID) {
	s := newBitset(b.numNodes)
	for _, id := range ids {
		s.set(id)
	}
	b.sets[v] = s
}

// rebind is the proxy's binding synchronization after one STwig step:
// H_v of the root and of every leaf of t becomes the set of data vertices
// that played that role in some machine's matches. The matches were
// filtered through the previous H_v, so a replaced set only shrinks.
func (b *Bindings) rebind(t STwig, perMachine [][]STwigMatch, sc *exploreScratch) {
	root := sc.takeSet()
	for _, matches := range perMachine {
		for i := range matches {
			root.set(matches[i].Root)
		}
	}
	b.install(t.Root, root, sc)
	for li, leaf := range t.Leaves {
		set := sc.takeSet()
		for _, matches := range perMachine {
			for i := range matches {
				for _, id := range matches[i].LeafSets[li] {
					set.set(id)
				}
			}
		}
		b.install(leaf, set, sc)
	}
}

// install makes s the new H_v, handing the set it replaces back to sc.
func (b *Bindings) install(v int, s bitset, sc *exploreScratch) {
	if old := b.sets[v]; old != nil {
		sc.putSet(old)
	}
	b.sets[v] = s
}

// release hands every bound set back to sc, leaving b all-unbound.
func (b *Bindings) release(sc *exploreScratch) {
	for v, s := range b.sets {
		if s != nil {
			sc.putSet(s)
			b.sets[v] = nil
		}
	}
}

// Values returns H_v's members in ascending order, nil when unbound.
func (b *Bindings) Values(v int) []graph.NodeID {
	s := b.sets[v]
	if s == nil {
		return nil
	}
	out := make([]graph.NodeID, 0, s.popcount())
	s.forEach(func(id graph.NodeID) { out = append(out, id) })
	return out
}

// TotalWords counts the vertex IDs stored across all bound sets; the
// exploration phase uses it to account binding-broadcast traffic.
func (b *Bindings) TotalWords() int {
	total := 0
	for _, s := range b.sets {
		if s != nil {
			total += s.popcount()
		}
	}
	return total
}

// exploreScratch is the reusable memory of one run's exploration phase:
// the binding sets (the only numNodes-sized objects a query touches) and,
// per machine, the buffers pass 1 of matchSTwig fills. The Executor pools
// these between runs; one run owns a scratch from the start of exploration
// to its end, and within a run the machine goroutines touch disjoint
// machineScratch entries while the proxy alone takes and returns sets.
type exploreScratch struct {
	words    int      // ⌈numNodes/64⌉: the width of every set in free
	free     []bitset // cleared sets ready for reuse
	machines []machineScratch
}

// machineScratch holds one machine's pass-1 output for the current step.
type machineScratch struct {
	cells  []rootCell
	labels []graph.LabelID
}

// newExploreScratch sizes a scratch for a cluster of k machines.
func newExploreScratch(k int) *exploreScratch {
	return &exploreScratch{machines: make([]machineScratch, k)}
}

// fit prepares the scratch for a data graph of numNodes vertices: sets kept
// from a run over a graph of another width are dropped.
func (sc *exploreScratch) fit(numNodes int64) {
	if words := bitsetWords(numNodes); sc.words != words {
		sc.words, sc.free = words, nil
	}
}

// takeSet returns an all-zero set of the fitted width.
func (sc *exploreScratch) takeSet() bitset {
	if n := len(sc.free); n > 0 {
		s := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return s
	}
	return make(bitset, sc.words)
}

// putSet clears s and keeps it for the next takeSet. A set of another
// width (SetIDs on a differently sized Bindings) is left to the collector.
func (sc *exploreScratch) putSet(s bitset) {
	if len(s) != sc.words {
		return
	}
	clear(s)
	sc.free = append(sc.free, s)
}

// forgetCells drops the arena references pass 1 left in the cell buffers:
// a pooled scratch must not keep alive an arena that an update has since
// replaced.
func (sc *exploreScratch) forgetCells() {
	for i := range sc.machines {
		cells := sc.machines[i].cells
		clear(cells[:cap(cells)])
	}
}

// bitset is a fixed-capacity bit vector over dense vertex IDs.
type bitset []uint64

// bitsetWords is the number of 64-bit words a set over n vertex IDs takes.
func bitsetWords(n int64) int { return int((n + 63) / 64) }

func newBitset(n int64) bitset { return make(bitset, bitsetWords(n)) }

func (s bitset) set(id graph.NodeID) { s[id>>6] |= 1 << (uint(id) & 63) }

func (s bitset) test(id graph.NodeID) bool {
	w := id >> 6
	if w < 0 || int(w) >= len(s) {
		return false
	}
	return s[w]&(1<<(uint(id)&63)) != 0
}

func (s bitset) popcount() int {
	total := 0
	for _, w := range s {
		total += bits.OnesCount64(w)
	}
	return total
}

// forEach calls fn for every set bit in ascending ID order.
func (s bitset) forEach(fn func(graph.NodeID)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(graph.NodeID(wi*64 + b))
			w &= w - 1
		}
	}
}
