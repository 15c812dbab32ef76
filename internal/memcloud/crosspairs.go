package memcloud

import (
	"math/bits"
	"sync"

	"stwig/internal/graph"
)

// crossPairs is the preprocessing structure of §5.3: "for each pairs of
// machines, we record all possible pairs of node labels" joined by a cross
// edge. It is stored the way the planner reads it — inverted and
// symmetric: one flat open-addressing table keyed by the unordered label
// pair {la, lb}, whose value is the set of unordered machine pairs {i, j},
// i < j, that an edge with those labels joins. The set is a triangle
// bitset of k(k−1)/2 bits, ⌈k(k−1)/2 / 64⌉ words per entry: one word up to
// 11 machines, two up to 16, eight at 32 and 32 at 64. An edge inside one
// machine records nothing, because a machine is at distance 0 from itself
// whatever the cluster graph's diagonal would say. Building a query's
// cluster graph is one probe per query edge, and never touches the data
// graph.
//
// The table probes linearly and stays at most 7/8 full. Its slots are split
// into crossRegions equal regions by the top bits of a key's hash, and a
// probe wraps within its key's region; the regions are what a load's
// machines lock to write the table concurrently (crossLoader). When a
// region would pass the bound, the whole table doubles, and a key keeps
// its region at every size. Entries are never removed: RemoveEdge leaves
// stale bits, which only make load sets larger.
type crossPairs struct {
	k     int
	words int      // triangle words per entry
	keys  []uint64 // pairKey of each slot's entry; 0 marks an empty slot
	sets  []uint64 // words per slot: the triangle bitset of the slot's key
	shift uint     // 64 − log2(len(keys)): a hash's top bits are its home slot
	used  [crossRegions]int
	pairs []machinePair // triangle bit → the machine pair it stands for
}

// machinePair is one bit of the triangle, i < j.
type machinePair struct{ i, j uint8 }

const (
	crossRegionBits = 4
	crossRegions    = 1 << crossRegionBits
	// crossMinSlots is the size of an empty table: 8 slots a region.
	crossMinSlots = crossRegions * 8
)

func newCrossPairs(k int) *crossPairs {
	cp := &crossPairs{
		k:     k,
		words: (k*(k-1)/2 + 63) / 64,
		pairs: make([]machinePair, 0, k*(k-1)/2),
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			cp.pairs = append(cp.pairs, machinePair{uint8(i), uint8(j)})
		}
	}
	cp.resize(crossMinSlots)
	return cp
}

// pairKey is the table key of the unordered label pair {la, lb}: the two
// labels' tag codes (label+1, so NoLabel is 0), smaller first, under a top
// bit that keeps every key off the empty slot's 0.
func pairKey(la, lb graph.LabelID) uint64 {
	a, b := uint64(uint32(la+1)), uint64(uint32(lb+1))
	if a > b {
		a, b = b, a
	}
	return 1<<63 | a<<32 | b
}

// pairHash spreads a key over 64 bits; its top bits are the key's home slot
// at every table size, and its top crossRegionBits its region.
func pairHash(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 }

func regionOf(key uint64) int { return int(pairHash(key) >> (64 - crossRegionBits)) }

// find returns key's slot, or the empty slot where it would go.
func (cp *crossPairs) find(key uint64) (slot int, found bool) {
	s := int(pairHash(key) >> cp.shift)
	wrap := len(cp.keys)>>crossRegionBits - 1
	for {
		switch cp.keys[s] {
		case key:
			return s, true
		case 0:
			return s, false
		}
		s = (s+1)&wrap | s&^wrap
	}
}

// hasRoom reports whether region r takes one more entry within the load
// bound.
func (cp *crossPairs) hasRoom(r int) bool {
	return cp.used[r] < len(cp.keys)>>crossRegionBits*7/8
}

// claim returns key's slot, taking an empty one if key is new. The caller
// has made room in key's region (hasRoom).
func (cp *crossPairs) claim(key uint64) int {
	s, found := cp.find(key)
	if !found {
		cp.insert(s, key)
	}
	return s
}

// insert puts key in the empty slot s that find returned for it.
func (cp *crossPairs) insert(s int, key uint64) {
	cp.keys[s] = key
	cp.used[regionOf(key)]++
}

// resize rehashes the table into slots slots, a power of two. Old slots are
// visited in order and land in the same order in the new table, so the
// copy writes it front to back.
func (cp *crossPairs) resize(slots int) {
	keys, sets := cp.keys, cp.sets
	cp.keys = make([]uint64, slots)
	cp.sets = make([]uint64, slots*cp.words)
	cp.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	cp.used = [crossRegions]int{}
	for s, key := range keys {
		if key != 0 {
			to := cp.claim(key)
			copy(cp.sets[to*cp.words:(to+1)*cp.words], sets[s*cp.words:(s+1)*cp.words])
		}
	}
}

// pairBit is the triangle bit of machine pair {i, j}, i ≠ j.
func (cp *crossPairs) pairBit(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*cp.k-i-1)/2 + j - i - 1
}

// set sets triangle bit p in slot s.
func (cp *crossPairs) set(s, p int) {
	// Most of a load's records repeat a bit the table holds; reading
	// first leaves the line shared with the other machines' cores.
	if w, bit := &cp.sets[s*cp.words+p>>6], uint64(1)<<(p&63); *w&bit == 0 {
		*w |= bit
	}
}

// add records that an edge labelled {la, lb} joins machines i and j, i ≠ j.
// The caller excludes writers and readers.
func (cp *crossPairs) add(la, lb graph.LabelID, i, j int) {
	key := pairKey(la, lb)
	for !cp.hasRoom(regionOf(key)) {
		cp.resize(2 * len(cp.keys))
	}
	cp.set(cp.claim(key), cp.pairBit(i, j))
}

// adjacency ORs into adj, for every machine pair {i, j} an edge labelled
// {la, lb} joins, bit j into adj[i] and bit i into adj[j].
func (cp *crossPairs) adjacency(la, lb graph.LabelID, adj []uint64) {
	s, found := cp.find(pairKey(la, lb))
	if !found {
		return
	}
	for w, set := range cp.sets[s*cp.words : (s+1)*cp.words] {
		for ; set != 0; set &= set - 1 {
			p := cp.pairs[w<<6|bits.TrailingZeros64(set)]
			adj[p.i] |= 1 << p.j
			adj[p.j] |= 1 << p.i
		}
	}
}

// memoryBytes is the table's size: its slots, their sets and the triangle's
// pair list.
func (cp *crossPairs) memoryBytes() int64 {
	return 8*int64(cap(cp.keys)+cap(cp.sets)) + 2*int64(cap(cp.pairs))
}

// crossLoader lets a load's machines fill one table concurrently. Each
// machine queues its records by region (crossBatch) and writes a full
// queue into the table under that region's lock, so two machines contend
// only when they flush to the same region at once. Every flush holds grow
// for reading; doubling the table holds it for writing.
type crossLoader struct {
	cp      *crossPairs
	grow    sync.RWMutex
	regions [crossRegions]sync.Mutex
}

const (
	// crossBatchLen is the most records a machine queues per region before
	// it writes them: one lock taken per 256 records.
	crossBatchLen = 256
	// crossSeenBits sizes a machine's filter of the records it queued
	// last: at most 4096 of them, 64 KB.
	crossSeenBits = 12
)

// crossRecord says that edges labelled like key join the batch's machine
// to every machine in js.
type crossRecord struct{ key, js uint64 }

// crossBatch is one machine's queues of records, by region, behind a
// direct-mapped filter of the records it queued last. A record the filter
// covers — its key, no machine the filter lacks — is dropped: on a graph of
// few labels that is nearly every record.
type crossBatch struct {
	l        *crossLoader
	pos      [MaxMachines]int // triangle bit of the pair {batch machine, j}, by j
	qlen     int
	n        [crossRegions]int
	queues   []crossRecord // region r's queue is queues[r*qlen:][:n[r]]
	seen     []crossRecord
	seenBits uint
}

// batch returns machine i's queues. A machine queues at most one record
// per adjacency entry, so one with few entries gets short queues and a
// small filter: a load of a small graph does not pay for a large one's.
func (l *crossLoader) batch(i int, entries int64) *crossBatch {
	b := &crossBatch{
		l:        l,
		qlen:     int(min(crossBatchLen, entries/crossRegions+1)),
		seenBits: uint(min(crossSeenBits, bits.Len64(uint64(entries)))),
	}
	buf := make([]crossRecord, crossRegions*b.qlen+1<<b.seenBits)
	b.queues, b.seen = buf[:crossRegions*b.qlen], buf[crossRegions*b.qlen:]
	for j := 0; j < l.cp.k; j++ {
		if j != i {
			b.pos[j] = l.cp.pairBit(i, j)
		}
	}
	return b
}

// add queues the record that edges labelled {la, lb} join the batch's
// machine to every machine in js, which does not hold the batch's machine.
func (b *crossBatch) add(la, lb graph.LabelID, js uint64) {
	key := pairKey(la, lb)
	h := pairHash(key)
	switch e := &b.seen[h>>(64-b.seenBits)]; {
	case e.key != key:
		*e = crossRecord{key, js}
	case js&^e.js == 0:
		return
	default:
		e.js |= js
	}
	r := int(h >> (64 - crossRegionBits))
	b.queues[r*b.qlen+b.n[r]] = crossRecord{key, js}
	if b.n[r]++; b.n[r] == b.qlen {
		b.flush(r)
	}
}

// flush writes region r's queue into the table, doubling the table
// whenever a new key finds the region full.
func (b *crossBatch) flush(r int) {
	l, recs := b.l, b.queues[r*b.qlen:][:b.n[r]]
	for {
		l.grow.RLock()
		l.regions[r].Lock()
		recs = b.write(r, recs)
		l.regions[r].Unlock()
		l.grow.RUnlock()
		if len(recs) == 0 {
			break
		}
		l.grow.Lock()
		if !l.cp.hasRoom(r) {
			l.cp.resize(2 * len(l.cp.keys))
		}
		l.grow.Unlock()
	}
	b.n[r] = 0
}

// write sets the bits of region r's records in the table until a new key
// finds the region full, and returns the records it did not write.
func (b *crossBatch) write(r int, recs []crossRecord) []crossRecord {
	cp := b.l.cp
	for n, rec := range recs {
		s, found := cp.find(rec.key)
		if !found {
			if !cp.hasRoom(r) {
				return recs[n:]
			}
			cp.insert(s, rec.key)
		}
		for js := rec.js; js != 0; js &= js - 1 {
			cp.set(s, b.pos[bits.TrailingZeros64(js)])
		}
	}
	return nil
}

// close flushes every queue.
func (b *crossBatch) close() {
	for r, n := range b.n {
		if n > 0 {
			b.flush(r)
		}
	}
}
