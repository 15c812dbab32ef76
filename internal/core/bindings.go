package core

import (
	"math/bits"
	"time"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
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
// runScratch and go back to it — cleared again — when they are replaced
// by a later step or when exploration ends (release), so a steady-state
// query allocates no numNodes-sized object. SetIDs, the standalone entry
// point, allocates its own set.
type Bindings struct {
	numNodes int64
	sets     []boundSet
}

// boundSet is one H_v. A selective step sets bits in a few dozen of the
// set's ⌈numNodes/64⌉ words, so the set lists the words add made non-zero,
// and handing it back to the scratch clears those alone. A set with more
// than len(bits)/8 of them is dense: its list stops there, so that a pooled
// list never costs more than a sixteenth of its set's bytes, and the whole
// set is cleared.
type boundSet struct {
	bits    bitset
	nonzero []int32 // word indexes: a cluster has at most 2^32 vertices
	dense   bool
}

// add sets id's bit, listing its word when the bit makes it non-zero.
func (s *boundSet) add(id graph.NodeID) {
	w := id >> 6
	if s.bits[w] == 0 && !s.dense {
		if len(s.nonzero) < len(s.bits)/8 {
			s.nonzero = append(s.nonzero, int32(w))
		} else {
			s.dense = true
		}
	}
	s.bits[w] |= 1 << (uint(id) & 63)
}

// NewBindings returns all-unbound bindings for nVertices query vertices
// over a data graph of numNodes dense vertex IDs.
func NewBindings(nVertices int, numNodes int64) *Bindings {
	return &Bindings{numNodes: numNodes, sets: make([]boundSet, nVertices)}
}

// Bound reports whether query vertex v has been bound by a processed STwig.
func (b *Bindings) Bound(v int) bool { return b.sets[v].bits != nil }

// Allows reports whether data vertex id is still eligible for query vertex
// v. Unbound vertices allow everything.
func (b *Bindings) Allows(v int, id graph.NodeID) bool {
	s := b.sets[v].bits
	if s == nil {
		return true
	}
	return s.test(id)
}

// Size returns |H_v|, or -1 if v is unbound.
func (b *Bindings) Size(v int) int {
	if b.sets[v].bits == nil {
		return -1
	}
	return b.sets[v].bits.popcount()
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
	b.sets[v] = boundSet{bits: s, dense: true}
}

// rebind is the proxy's binding synchronization after one STwig step:
// H_v of the root and of every leaf of t becomes the set of data vertices
// that played that role in some machine's matches. The matches were
// filtered through the previous H_v, so a replaced set only shrinks.
func (b *Bindings) rebind(t STwig, perMachine [][]STwigMatch, sc *runScratch) {
	root := sc.takeSet()
	for _, matches := range perMachine {
		for i := range matches {
			root.add(matches[i].Root)
		}
	}
	b.install(t.Root, root, sc)
	for li, leaf := range t.Leaves {
		set := sc.takeSet()
		for _, matches := range perMachine {
			for i := range matches {
				for _, id := range matches[i].LeafSets[li] {
					set.add(id)
				}
			}
		}
		b.install(leaf, set, sc)
	}
}

// install makes s the new H_v, handing the set it replaces back to sc.
func (b *Bindings) install(v int, s boundSet, sc *runScratch) {
	if old := b.sets[v]; old.bits != nil {
		sc.putSet(old)
	}
	b.sets[v] = s
}

// release hands every bound set back to sc, leaving b all-unbound.
func (b *Bindings) release(sc *runScratch) {
	for v, s := range b.sets {
		if s.bits != nil {
			sc.putSet(s)
			b.sets[v] = boundSet{}
		}
	}
}

// Values returns H_v's members in ascending order, nil when unbound.
func (b *Bindings) Values(v int) []graph.NodeID {
	s := b.sets[v].bits
	if s == nil {
		return nil
	}
	out := make([]graph.NodeID, 0, s.popcount())
	s.forEach(func(id graph.NodeID) { out = append(out, id) })
	return out
}

// runScratch is the reusable memory of one run: for exploration, the
// binding sets (the only numNodes-sized objects a query touches) and, per
// machine, the leaf filters and candidate buffers of matchSTwig; for the
// join, per machine, its relations (joinScratch), its joiner with the
// match block and the header array its flushed blocks are handed out
// through. The Executor pools these between runs; one run owns a scratch
// from its start to its end. Within a run the machine goroutines touch
// disjoint machineScratch entries and the proxy alone takes and returns
// sets.
type runScratch struct {
	words    int        // ⌈numNodes/64⌉: the width of every set in free
	free     []boundSet // cleared sets ready for reuse
	machines []machineScratch
}

// machineScratch holds one machine's leaf filters and candidate buffers for
// the current step, its join state, the traffic it has charged in this run
// and its time in the current parallel section. Only the worker that
// claimed the machine writes them, so the charges are plain adds; the
// forEachMachine barrier publishes them to the proxy.
type machineScratch struct {
	leaves  []leafFilter
	cands   [][]graph.NodeID
	join    joinScratch
	joiner  joiner
	matches []Match // headers over the block being emitted
	net     memcloud.NetStats
	// took is the machine's time in the section; emitTime its time inside
	// emit in the join, and exchange, stamped only by a run that records
	// spans, its time assembling relations.
	took, exchange, emitTime time.Duration
}

// stop reads the clock once to end the machine's section: its time since
// start, and the reading that starts its worker's next machine. Only the
// monotonic clock is read, at about half the cost of time.Now.
func (ms *machineScratch) stop(start time.Time) time.Time {
	ms.took = time.Since(start)
	return start.Add(ms.took)
}

// newRunScratch sizes a scratch for a cluster of k machines.
func newRunScratch(k int) *runScratch {
	return &runScratch{machines: make([]machineScratch, k)}
}

// fit prepares the scratch for a data graph of numNodes vertices: sets kept
// from a run over a graph of another width are dropped.
func (sc *runScratch) fit(numNodes int64) {
	if words := bitsetWords(numNodes); sc.words != words {
		sc.words, sc.free = words, nil
	}
}

// takeSet returns an all-zero set of the fitted width.
func (sc *runScratch) takeSet() boundSet {
	if n := len(sc.free); n > 0 {
		s := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return s
	}
	return boundSet{bits: make(bitset, sc.words)}
}

// putSet clears s — the words it lists, or all of a dense set — and keeps
// it for the next takeSet. A set of another width (SetIDs on a differently
// sized Bindings) is left to the collector.
func (sc *runScratch) putSet(s boundSet) {
	if len(s.bits) != sc.words {
		return
	}
	if s.dense {
		clear(s.bits)
	} else {
		for _, w := range s.nonzero {
			s.bits[w] = 0
		}
	}
	sc.free = append(sc.free, boundSet{bits: s.bits, nonzero: s.nonzero[:0]})
}

// maxIdleJoinBytes bounds the join memory — match blocks, relation buffers —
// a pooled scratch keeps. A streaming query leaves every machine's joiner
// with a full block (BlockSize assignments) and every machine's relations
// with their copies and indexes; a process holds a few scratches (sync.Pool
// keeps one per P, and what the last collection saw), so keeping all of it
// would add machines × that to the live heap several times over. What lies
// beyond the bound is dropped and grows again in a run that needs it; a
// selective query's join memory fits whole, and so do the blocks a streaming
// 4-vertex query leaves on the default 8 machines (8 × 256 × 4 ids).
const maxIdleJoinBytes = 64 << 10

// forget drops what the finished run left in the scratch — its machines'
// traffic counts, the exploration results the relations alias, the blocks
// the match headers point into: a pooled scratch must not keep a finished
// query's matches alive, and the next run must start its count at zero. It
// also trims the join memory to maxIdleJoinBytes: the joiners' blocks first
// (a block is the largest single piece), then the machines' relations.
func (sc *runScratch) forget() {
	held := 0
	for i := range sc.machines {
		j := &sc.machines[i].joiner
		j.release()
		if held += 8 * cap(j.block); held > maxIdleJoinBytes {
			j.block = nil
		}
	}
	for i := range sc.machines {
		ms := &sc.machines[i]
		clear(ms.matches[:cap(ms.matches)])
		ms.net, ms.emitTime = memcloud.NetStats{}, 0
		ms.join.release()
		if held += ms.join.idleBytes(); held > maxIdleJoinBytes {
			ms.join = joinScratch{}
		}
	}
}

// carve slices block — assignments of n ids each, back to back — into
// matches over the machine's header array. A machine has one block out at
// a time.
func (ms *machineScratch) carve(block []graph.NodeID, n int) []Match {
	out := ms.matches[:0]
	for at := 0; at < len(block); at += n {
		out = append(out, Match{Assignment: block[at : at+n : at+n]})
	}
	ms.matches = out
	return out
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
