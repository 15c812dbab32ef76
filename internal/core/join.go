package core

import (
	"math/rand"
	"sort"
	"sync/atomic"

	"stwig/internal/graph"
)

// Join phase (§4.2 step 3, §4.3): each machine joins the STwig result
// relations it assembled (its own matches plus matches fetched per the load
// sets) into full query matches. Two optimizations from the paper:
//
//   - Join order selection: relations are reordered by sample-estimated
//     cardinality so the join starts from small candidate sets, growing
//     left-deep through relations connected by shared query vertices.
//   - Block-based pipelined join: the driver relation is consumed in blocks
//     so partial results surface before the full multi-way join completes,
//     and the whole pipeline stops as soon as the match budget is reached.
//
// Injectivity (Definition 2's bijection) is enforced during expansion.

// relation is one STwig's result set prepared for joining.
type relation struct {
	twig    STwig
	matches []STwigMatch
	byRoot  map[graph.NodeID][]int32   // match indexes grouped by root
	byLeaf  []map[graph.NodeID][]int32 // per leaf, built lazily on first probe
	est     float64                    // estimated expanded cardinality
}

func newRelation(twig STwig, matches []STwigMatch, rng sampler) *relation {
	r := &relation{twig: twig, matches: matches}
	r.buildIndexes()
	r.est = estimateCardinality(matches, rng)
	return r
}

// buildIndexes (re)creates the root hash index and resets the lazy leaf
// indexes. The root index is O(|matches|); leaf posting lists are
// O(Σ|leaf sets|) and only materialized by leafIndex when the join order
// actually probes that leaf — profiling shows eager leaf indexes dominate
// query time on unselective (label-poor) workloads where they are never
// probed.
func (r *relation) buildIndexes() {
	r.byRoot = make(map[graph.NodeID][]int32, len(r.matches))
	r.byLeaf = make([]map[graph.NodeID][]int32, len(r.twig.Leaves))
	for i, m := range r.matches {
		r.byRoot[m.Root] = append(r.byRoot[m.Root], int32(i))
	}
}

// leafIndex returns the posting map for leaf li, building it on first use.
// Lazy building is only safe single-goroutine: sequential joins qualify,
// and the parallel join calls prebuildLeafIndexes before fanning chunks
// out, so concurrent probes only ever see already-built maps.
func (r *relation) leafIndex(li int) map[graph.NodeID][]int32 {
	if r.byLeaf[li] == nil {
		// Pre-size from the match count: each match contributes at least
		// one posting per leaf, so this bounds rehashing without
		// materializing exact cardinalities first.
		idx := make(map[graph.NodeID][]int32, len(r.matches))
		for i, m := range r.matches {
			for _, id := range m.LeafSets[li] {
				idx[id] = append(idx[id], int32(i))
			}
		}
		r.byLeaf[li] = idx
	}
	return r.byLeaf[li]
}

// prebuildLeafIndexes materializes every leaf posting map the join order
// can probe, so chunked joiners running concurrently never hit the lazy
// build path. Which probes are possible is static: when nextRelation
// reaches depth d, exactly the vertices of rels[0..d-1] are bound, and a
// leaf index is consulted only when the relation's root is not among them.
func prebuildLeafIndexes(rels []*relation) {
	bound := make(map[int]bool)
	for d, rel := range rels {
		if d > 0 && !bound[rel.twig.Root] {
			for li, leafVar := range rel.twig.Leaves {
				if bound[leafVar] {
					rel.leafIndex(li)
				}
			}
		}
		for _, v := range rel.twig.Vertices() {
			bound[v] = true
		}
	}
}

// totalWords estimates the wire/memory size of the relation in 8-byte
// words; the engine uses it to decide whether the semi-join pass pays.
func (r *relation) totalWords() int {
	w := 0
	for _, m := range r.matches {
		w += m.words()
	}
	return w
}

// sampler is the part of *rand.Rand cardinality estimation draws from.
type sampler interface{ Intn(n int) int }

// lazyRand is rand.New(rand.NewSource(seed)) created on the first draw.
// Seeding costs a 607-word loop and ~5 KB, every machine of every run owns
// a generator, and only a relation of more than 256 matches ever draws; the
// sequence drawn is that of the eagerly seeded generator.
type lazyRand struct {
	seed int64
	rng  *rand.Rand
}

func (l *lazyRand) Intn(n int) int {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	return l.rng.Intn(n)
}

// estimateCardinality implements the sample-based size estimate used for
// join ordering: the summed expanded counts of a uniform sample of factored
// matches, scaled to the full relation.
func estimateCardinality(matches []STwigMatch, rng sampler) float64 {
	const sampleCap = 256
	n := len(matches)
	if n == 0 {
		return 0
	}
	if n <= sampleCap {
		var total float64
		for _, m := range matches {
			total += float64(m.ExpandedCount())
		}
		return total
	}
	var total float64
	for i := 0; i < sampleCap; i++ {
		m := matches[rng.Intn(n)]
		total += float64(m.ExpandedCount())
	}
	return total * float64(n) / float64(sampleCap)
}

// orderRelations picks a left-deep join order: the smallest relation first,
// then repeatedly the not-yet-joined relation sharing the most query
// vertices with the prefix (so cycle-closing relations degenerate into
// cheap filters), breaking ties toward the smallest estimated cardinality.
// With optimize=false the input order is kept (the ablation baseline).
func orderRelations(rels []*relation, optimize bool) []*relation {
	if !optimize || len(rels) <= 1 {
		return rels
	}
	ordered := make([]*relation, 0, len(rels))
	used := make([]bool, len(rels))
	joinedVars := map[int]bool{}

	pick := func(requireConnected bool) int {
		best, bestShared := -1, -1
		for i, r := range rels {
			if used[i] {
				continue
			}
			shared := 0
			for _, v := range r.twig.Vertices() {
				if joinedVars[v] {
					shared++
				}
			}
			if requireConnected && shared == 0 {
				continue
			}
			if best == -1 || shared > bestShared ||
				(shared == bestShared && r.est < rels[best].est) {
				best, bestShared = i, shared
			}
		}
		return best
	}

	for len(ordered) < len(rels) {
		i := pick(len(ordered) > 0)
		if i == -1 {
			i = pick(false) // disconnected remainder: fall back
		}
		used[i] = true
		ordered = append(ordered, rels[i])
		for _, v := range rels[i].twig.Vertices() {
			joinedVars[v] = true
		}
	}
	return ordered
}

// joiner runs the pipelined multiway join over one driver range. Several
// joiners may work one machine's relations concurrently (one per driver
// chunk); each owns its scratch state, while budget and abort are shared.
type joiner struct {
	q      *Query
	rels   []*relation
	budget *atomic.Int64 // shared across machines and chunks; nil means unlimited
	// emitBlock receives each flushed block of matches; returning false
	// stops this joiner. The slice is reused between flushes.
	emitBlock func([]Match) bool
	// emit is the per-match variant (tests, ad-hoc callers); used when
	// emitBlock is nil.
	emit func(Match) bool
	// abort, when non-nil, is polled between relation advances so context
	// cancellation and cross-machine stops propagate into deep expansions.
	abort func() bool

	assignment []graph.NodeID
	used       map[graph.NodeID]int // data vertex -> count of uses (always 1)
	buf        []Match              // matches accepted but not yet flushed
	bufCap     int                  // flush threshold, set by init
	stopped    bool
	budgetHit  bool
	blockSize  int
}

// maxEmitBuffer clamps the emit buffer: a single driver block can expand
// into arbitrarily many matches, and a flush is also the cancellation
// granularity the consumer observes, so the buffer must not grow with the
// expansion factor or an oversized block size.
const maxEmitBuffer = 1024

// run consumes the whole driver relation; the parallel path uses init +
// runRange per chunk instead.
func (j *joiner) run() {
	j.init()
	if len(j.rels) == 0 {
		return
	}
	j.runRange(0, len(j.rels[0].matches))
}

// init prepares the joiner's private scratch state.
func (j *joiner) init() {
	n := j.q.NumVertices()
	j.assignment = make([]graph.NodeID, n)
	for i := range j.assignment {
		j.assignment[i] = graph.InvalidNode
	}
	j.used = make(map[graph.NodeID]int, n)
	j.bufCap = j.blockSize
	if j.bufCap <= 0 {
		j.bufCap = 256
	}
	if j.bufCap > maxEmitBuffer {
		j.bufCap = maxEmitBuffer
	}
}

// runRange consumes driver matches [lo,hi) in blocks, expanding each block
// through the remaining relations and flushing accepted matches at block
// boundaries — the serialized emit path is taken once per block, not once
// per match.
func (j *joiner) runRange(lo, hi int) {
	driver := j.rels[0]
	bs := j.blockSize
	if bs <= 0 {
		bs = 256
	}
	for ; lo < hi && !j.stopped; lo += bs {
		end := lo + bs
		if end > hi {
			end = hi
		}
		for _, m := range driver.matches[lo:end] {
			j.expandMatch(0, m)
			if j.stopped {
				break
			}
		}
		j.flushBuf()
	}
	// Matches still buffered after a stop already passed the budget, so
	// they are flushed rather than dropped (a refused emit empties the
	// buffer itself).
	j.flushBuf()
}

// flushBuf delivers the buffered matches through the emit callback.
func (j *joiner) flushBuf() {
	if len(j.buf) == 0 {
		return
	}
	ms := j.buf
	j.buf = j.buf[:0]
	if j.emitBlock != nil {
		if !j.emitBlock(ms) {
			j.stopped = true
		}
		return
	}
	for _, m := range ms {
		if !j.emit(m) {
			j.stopped = true
			return
		}
	}
}

// expandMatch binds the factored match m of relation depth into the current
// assignment (root, then each leaf), then advances to the next relation.
func (j *joiner) expandMatch(depth int, m STwigMatch) {
	twig := j.rels[depth].twig
	if cur := j.assignment[twig.Root]; cur != graph.InvalidNode {
		// Root variable shared with an earlier relation: must agree, and
		// stays bound by its original owner.
		if cur != m.Root {
			return
		}
		j.expandLeaves(depth, twig, m, 0)
		return
	}
	if !j.bind(twig.Root, m.Root) {
		return
	}
	j.expandLeaves(depth, twig, m, 0)
	j.unbind(twig.Root, m.Root)
}

func (j *joiner) expandLeaves(depth int, twig STwig, m STwigMatch, li int) {
	if j.stopped {
		return
	}
	if li == len(twig.Leaves) {
		j.nextRelation(depth + 1)
		return
	}
	leafVar := twig.Leaves[li]
	if bound := j.assignment[leafVar]; bound != graph.InvalidNode {
		// The leaf variable is already assigned (shared with an earlier
		// relation): this match must agree. Leaf sets are sorted (built
		// from sorted adjacency and filtered order-preservingly).
		set := m.LeafSets[li]
		k := sort.Search(len(set), func(i int) bool { return set[i] >= bound })
		if k < len(set) && set[k] == bound {
			j.expandLeaves(depth, twig, m, li+1)
		}
		return
	}
	for _, cand := range m.LeafSets[li] {
		if !j.bind(leafVar, cand) {
			continue
		}
		j.expandLeaves(depth, twig, m, li+1)
		j.unbind(leafVar, cand)
		if j.stopped {
			return
		}
	}
}

// nextRelation advances the left-deep pipeline after relation depth-1 is
// fully bound. It probes the tightest available hash index: the root index
// when the root variable is bound, otherwise the smallest posting list of a
// bound leaf variable, falling back to a full scan only when the relation
// shares no bound variable (which the join order avoids).
func (j *joiner) nextRelation(depth int) {
	if depth == len(j.rels) {
		j.emitCurrent()
		return
	}
	if j.abort != nil && j.abort() {
		j.stopped = true
		return
	}
	rel := j.rels[depth]
	if bound := j.assignment[rel.twig.Root]; bound != graph.InvalidNode {
		for _, mi := range rel.byRoot[bound] {
			j.expandMatch(depth, rel.matches[mi])
			if j.stopped {
				return
			}
		}
		return
	}
	var probe []int32
	havePosting := false
	for li, leafVar := range rel.twig.Leaves {
		if bound := j.assignment[leafVar]; bound != graph.InvalidNode {
			posting := rel.leafIndex(li)[bound]
			if !havePosting || len(posting) < len(probe) {
				probe, havePosting = posting, true
			}
		}
	}
	if havePosting {
		for _, mi := range probe {
			j.expandMatch(depth, rel.matches[mi])
			if j.stopped {
				return
			}
		}
		return
	}
	for _, m := range rel.matches {
		j.expandMatch(depth, m)
		if j.stopped {
			return
		}
	}
}

// emitCurrent books the current assignment against the shared budget and
// buffers it for the next flush. The budget check stays per-match (and
// atomic) so truncation points are identical to unbatched emission.
func (j *joiner) emitCurrent() {
	if j.abort != nil && j.abort() {
		j.stopped = true
		return
	}
	if j.budget != nil {
		if j.budget.Add(-1) < 0 {
			j.stopped = true
			j.budgetHit = true
			return
		}
	}
	out := make([]graph.NodeID, len(j.assignment))
	copy(out, j.assignment)
	j.buf = append(j.buf, Match{Assignment: out})
	if len(j.buf) >= j.bufCap {
		j.flushBuf()
	}
}

// bind assigns data vertex id to the currently unbound query vertex v,
// enforcing injectivity; it returns false (without binding) when id is
// already in use by another query vertex.
func (j *joiner) bind(v int, id graph.NodeID) bool {
	if j.used[id] > 0 {
		return false
	}
	j.assignment[v] = id
	j.used[id]++
	return true
}

func (j *joiner) unbind(v int, id graph.NodeID) {
	j.assignment[v] = graph.InvalidNode
	j.used[id]--
}

// sortRelationsDeterministic gives relations a stable pre-order before
// estimation so runs are reproducible regardless of map iteration.
func sortRelationsDeterministic(rels []*relation) {
	sort.SliceStable(rels, func(a, b int) bool {
		return rels[a].twig.Root < rels[b].twig.Root
	})
}

// semijoinReduce shrinks relations before the join: for every query vertex
// v, a data vertex can participate only if it appears as a possible v-value
// in every relation whose STwig contains v. Values failing that test cannot
// occur in any full match (a full match's restriction to each STwig is in
// its relation), so filtering them is sound. This is the join-phase
// counterpart of exploration-time binding propagation: bindings prune
// forward along the STwig order, the semi-join pass prunes backward.
//
// Runs passes until a fixpoint (bounded for safety); each pass is linear in
// the total relation size. Returns how many passes (rounds) ran, for the
// traced span tree.
func semijoinReduce(q *Query, rels []*relation, rng sampler) int {
	const maxPasses = 4
	n := q.NumVertices()
	for pass := 0; pass < maxPasses; pass++ {
		// allowed[v] = ∩ over relations containing v of v's value set.
		allowed := make([]map[graph.NodeID]struct{}, n)
		for _, r := range rels {
			vals := relationValueSets(r, n)
			for v, set := range vals {
				if set == nil {
					continue
				}
				if allowed[v] == nil {
					allowed[v] = set
					continue
				}
				for id := range allowed[v] {
					if _, ok := set[id]; !ok {
						delete(allowed[v], id)
					}
				}
			}
		}
		changed := false
		for _, r := range rels {
			if filterRelation(r, allowed) {
				changed = true
			}
		}
		if !changed {
			return pass + 1
		}
		for _, r := range rels {
			rebuildRelation(r, rng)
		}
	}
	return maxPasses
}

// relationValueSets collects, per query vertex of r's STwig, the set of
// data vertices that can play it in r. Entries for vertices outside the
// STwig are nil.
func relationValueSets(r *relation, n int) []map[graph.NodeID]struct{} {
	vals := make([]map[graph.NodeID]struct{}, n)
	twig := r.twig
	vals[twig.Root] = make(map[graph.NodeID]struct{}, len(r.matches))
	for _, leaf := range twig.Leaves {
		if vals[leaf] == nil {
			vals[leaf] = make(map[graph.NodeID]struct{})
		}
	}
	for _, m := range r.matches {
		vals[twig.Root][m.Root] = struct{}{}
		for i, leaf := range twig.Leaves {
			for _, id := range m.LeafSets[i] {
				vals[leaf][id] = struct{}{}
			}
		}
	}
	return vals
}

// filterRelation drops match roots and leaf candidates not in allowed,
// returning whether anything changed.
func filterRelation(r *relation, allowed []map[graph.NodeID]struct{}) bool {
	changed := false
	twig := r.twig
	kept := r.matches[:0]
matchLoop:
	for _, m := range r.matches {
		if a := allowed[twig.Root]; a != nil {
			if _, ok := a[m.Root]; !ok {
				changed = true
				continue
			}
		}
		for i, leaf := range twig.Leaves {
			a := allowed[leaf]
			if a == nil {
				continue
			}
			set := m.LeafSets[i]
			filtered := set[:0]
			for _, id := range set {
				if _, ok := a[id]; ok {
					filtered = append(filtered, id)
				}
			}
			if len(filtered) != len(set) {
				changed = true
			}
			if len(filtered) == 0 {
				continue matchLoop
			}
			m.LeafSets[i] = filtered
		}
		if len(twig.Leaves) > 1 && !injectivelySatisfiable(m.LeafSets) {
			changed = true
			continue
		}
		kept = append(kept, m)
	}
	r.matches = kept
	return changed
}

// rebuildRelation refreshes the hash indexes and cardinality estimate after
// filtering.
func rebuildRelation(r *relation, rng sampler) {
	r.buildIndexes()
	r.est = estimateCardinality(r.matches, rng)
}
