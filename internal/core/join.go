package core

import (
	"cmp"
	"context"
	"slices"
	"sync/atomic"

	"stwig/internal/graph"
)

// Join phase (§4.2 step 3, §4.3): each machine joins the STwig result
// relations it assembled (its own matches plus matches fetched per the load
// sets) into full query matches. Two optimizations from the paper:
//
//   - Join order selection: relations are reordered by exact expanded
//     cardinality so the join starts from small candidate sets, growing
//     left-deep through relations connected by shared query vertices.
//   - Block-based pipelined join: the driver relation is consumed in blocks
//     so partial results surface before the full multi-way join completes,
//     and the whole pipeline stops as soon as the match budget is reached.
//
// Injectivity (Definition 2's bijection) is enforced during expansion, by
// scanning the current assignment: it has one entry per query vertex.
//
// Everything here is a flat, index-addressed array; no Go map is built per
// query (the paper's §2.2 memory-trunk argument, applied to the join):
//
//   - A relation index is a posting array — (data vertex, match index)
//     pairs sorted by vertex, then by match index — probed by binary search.
//     Slot 0 indexes the matches' roots, slot 1+i the candidates of leaf i.
//     An index is built at most once per relation and run, on its first
//     probe; exactly one joiner works a machine's relations, so the lazy
//     build needs no lock.
//   - The machine's joiner appends every accepted assignment to one flat id
//     block that it owns and starts over after each flush. The flush hands
//     the block to the run's emit, which slices it into Match values over
//     the machine's own header array (machineScratch.carve). A flushed block
//     — the []Match and every Assignment in it — is therefore valid only
//     until the emit callback returns; whoever keeps a match copies it
//     (Engine.MatchStream and Engine.Match do, once per block).
//
// All of it is scratch of one run: per machine the relations with their
// index and match buffers, the joiner and the header array live in
// the runScratch the execution takes from Executor.scratch when it starts and
// puts back — referencing nothing of the run, and holding at most
// maxIdleJoinBytes of join memory — when it ends. A warm query whose join
// memory fits that bound allocates nothing here; a larger one grows again
// what was dropped, O(machines · log BlockSize) allocations whatever the
// size of its result.

// posting is one entry of a relation index: data vertex id occurs in match
// number match (an index into relation.matches).
type posting struct {
	id    graph.NodeID
	match int32
}

// relIndex is one slot's posting array, sorted by (id, match). The array
// keeps its capacity between runs; built says whether it describes the
// relation's current matches.
type relIndex struct {
	postings []posting
	built    bool
}

// relation is one STwig's result set prepared for joining. It is its own
// scratch: idx and own keep their capacity from run to run (a
// machine reuses relation t for STwig t of its next query), so preparing a
// relation allocates only while it outgrows every earlier one in its place.
type relation struct {
	twig    STwig
	matches []STwigMatch
	card    float64    // expanded cardinality, as size returns it
	idx     []relIndex // slot 0: roots; slot 1+i: candidates of leaf i

	// private reports that matches is own rather than an exploration
	// result, which every machine's join aliases and nobody may write.
	private bool
	own     []STwigMatch // the private match array
}

// reset points r at one STwig's matches and drops the previous indexes.
func (r *relation) reset(twig STwig, matches []STwigMatch) {
	r.twig, r.matches, r.private = twig, matches, false
	slots := 1 + len(twig.Leaves)
	r.idx = reuse(r.idx, slots)[:slots]
	for i := range r.idx {
		r.idx[i].built = false
	}
}

// release drops everything r references outside its own buffers, so a pooled
// relation pins neither exploration results nor a plan.
func (r *relation) release() {
	clear(r.own)
	r.own = r.own[:0]
	r.twig, r.matches, r.private = STwig{}, nil, false
}

// privatize moves the match array into own (once), leaf sets still aliased.
func (r *relation) privatize() {
	if !r.private {
		r.own = append(r.own[:0], r.matches...)
		r.matches, r.private = r.own, true
	}
}

// extend appends matches fetched from another machine.
func (r *relation) extend(remote []STwigMatch) {
	r.privatize()
	r.own = append(r.own, remote...)
	r.matches = r.own
}

// reuse returns s emptied, with room for n elements: a kept buffer grows to
// exactly what the largest run so far needed.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// index returns slot's posting array, building it on first use: every
// (id, match) pair of the slot, sorted by id and then by match index, so the
// matches holding one id form a run in ascending match order — the order
// the relation lists them in. The root index is O(|matches|), a leaf index
// O(Σ|leaf sets|), and on unselective workloads most are never probed, hence
// the lazy build. Only the owning machine's joiner calls this.
func (r *relation) index(slot int) []posting {
	ix := &r.idx[slot]
	if ix.built {
		return ix.postings
	}
	ps := ix.postings[:0]
	if slot == 0 {
		for i := range r.matches {
			ps = append(ps, posting{r.matches[i].Root, int32(i)})
		}
	} else {
		for i := range r.matches {
			for _, id := range r.matches[i].LeafSets[slot-1] {
				ps = append(ps, posting{id, int32(i)})
			}
		}
	}
	slices.SortFunc(ps, func(a, b posting) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.match, b.match)
	})
	ix.postings, ix.built = ps, true
	return ps
}

// probe returns the run of postings for id.
func probe(ps []posting, id graph.NodeID) []posting {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for hi < len(ps) && ps[hi].id == id {
		hi++
	}
	return ps[lo:hi]
}

// covered reports whether some relation of rels covers query vertex v. Join
// orders are a handful of relations over a handful of vertices, so scanning
// them beats keeping a set.
func covered(rels []*relation, v int) bool {
	for _, r := range rels {
		if r.twig.slot(v) >= 0 {
			return true
		}
	}
	return false
}

// size returns the summed ExpandedCount of r's matches: the exact number of
// tuples the relation denotes (ignoring injectivity), which orders the join.
func (r *relation) size() (card float64) {
	for _, m := range r.matches {
		card += float64(m.ExpandedCount())
	}
	return card
}

// orderRelations picks a left-deep join order, in place: the smallest
// relation first, then repeatedly the not-yet-joined relation sharing the
// most query vertices with the prefix (so cycle-closing relations degenerate
// into cheap filters), breaking ties toward the smallest cardinality and
// then toward the earliest in the input. With optimize=false the input
// order is kept (the ablation baseline).
func orderRelations(rels []*relation, optimize bool) []*relation {
	if !optimize || len(rels) <= 1 {
		return rels
	}
	// pick chooses among rels[pos:] against the prefix rels[:pos].
	pick := func(pos int, requireConnected bool) int {
		best, bestShared := -1, -1
		for i := pos; i < len(rels); i++ {
			r := rels[i]
			shared := 0
			if covered(rels[:pos], r.twig.Root) {
				shared++
			}
			for _, leaf := range r.twig.Leaves {
				if covered(rels[:pos], leaf) {
					shared++
				}
			}
			if requireConnected && shared == 0 {
				continue
			}
			if best == -1 || shared > bestShared ||
				(shared == bestShared && r.card < rels[best].card) {
				best, bestShared = i, shared
			}
		}
		return best
	}
	for pos := range rels {
		i := pick(pos, pos > 0)
		if i == -1 {
			i = pick(pos, false) // disconnected remainder: fall back
		}
		// Move the pick up to pos; the rest keep their order, so later ties
		// still go to the earliest.
		r := rels[i]
		copy(rels[pos+1:i+1], rels[pos:i])
		rels[pos] = r
	}
	return rels
}

// joiner runs one machine's pipelined multiway join. It owns its assignment
// and its match block; budget and stop are shared with the other machines'
// joiners. A joiner is reused across runs (machineScratch): run keeps the
// capacity of assignment and block.
type joiner struct {
	q      *Query
	rels   []*relation
	budget *atomic.Int64 // shared across machines; nil means unlimited
	// emitBlock receives each flushed block: the accepted assignments back
	// to back, n ids each. Returning false stops this joiner. The joiner
	// overwrites the block with its next matches once emitBlock returns.
	emitBlock func(block []graph.NodeID, n int) bool
	// A run sets stop (shared across machines) and ctx to end it early.
	stop  *atomic.Bool
	ctx   context.Context
	polls int

	assignment []graph.NodeID // current partial assignment; InvalidNode = unbound
	block      []graph.NodeID // assignments accepted but not yet flushed
	bufCap     int            // flush threshold in matches, set by run
	stopped    bool
	budgetHit  bool
	blockSize  int
}

// maxEmitBuffer clamps the emit buffer: a single driver block can expand
// into arbitrarily many matches, and a flush is also the cancellation
// granularity the consumer observes, so the buffer must not grow with the
// expansion factor or an oversized block size.
const maxEmitBuffer = 1024

// minMatchBlock is the first match block's size in matches; a joiner that
// buffers more doubles it, up to bufCap.
const minMatchBlock = 16

// run consumes the driver relation in blocks, expanding each block through
// the remaining relations and flushing accepted matches at block boundaries —
// emit is called once per block, not once per match.
func (j *joiner) run() {
	n := j.q.NumVertices()
	j.assignment = reuse(j.assignment, n)[:n]
	for i := range j.assignment {
		j.assignment[i] = graph.InvalidNode
	}
	j.block = j.block[:0]
	j.stopped, j.budgetHit = false, false
	bs := j.blockSize
	if bs <= 0 {
		bs = 256
	}
	j.bufCap = min(bs, maxEmitBuffer)
	if len(j.rels) == 0 {
		return
	}
	driver := j.rels[0].matches
	for lo := 0; lo < len(driver) && !j.stopped; lo += bs {
		for _, m := range driver[lo:min(lo+bs, len(driver))] {
			j.expandMatch(0, m)
			if j.stopped {
				break
			}
		}
		// After a stop too: what is still buffered already passed the
		// budget, so it is flushed rather than dropped (a refused emit
		// empties the buffer itself).
		j.flushBuf()
	}
}

// flushBuf delivers the buffered matches through the emit callback and
// starts the block over.
func (j *joiner) flushBuf() {
	if len(j.block) == 0 {
		return
	}
	if !j.emitBlock(j.block, len(j.assignment)) {
		j.stopped = true
	}
	j.block = j.block[:0]
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
	j.unbind(twig.Root)
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
		if _, ok := slices.BinarySearch(m.LeafSets[li], bound); ok {
			j.expandLeaves(depth, twig, m, li+1)
		}
		return
	}
	for _, cand := range m.LeafSets[li] {
		if !j.bind(leafVar, cand) {
			continue
		}
		j.expandLeaves(depth, twig, m, li+1)
		j.unbind(leafVar)
		if j.stopped {
			return
		}
	}
}

// nextRelation advances the left-deep pipeline after relation depth-1 is
// fully bound. It probes the tightest available index: the root index when
// the root variable is bound, otherwise the shortest posting run of a bound
// leaf variable, falling back to a full scan only when the relation shares
// no bound variable (which the join order avoids).
func (j *joiner) nextRelation(depth int) {
	if depth == len(j.rels) {
		j.emitCurrent()
		return
	}
	if j.aborted() {
		j.stopped = true
		return
	}
	rel := j.rels[depth]
	var run []posting
	haveRun := false
	if bound := j.assignment[rel.twig.Root]; bound != graph.InvalidNode {
		run, haveRun = probe(rel.index(0), bound), true
	} else {
		for li, leafVar := range rel.twig.Leaves {
			if bound := j.assignment[leafVar]; bound != graph.InvalidNode {
				r := probe(rel.index(1+li), bound)
				if !haveRun || len(r) < len(run) {
					run, haveRun = r, true
				}
			}
		}
	}
	if haveRun {
		for _, p := range run {
			j.expandMatch(depth, rel.matches[p.match])
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
// appends it to the block for the next flush. The budget check
// stays per-match (and atomic) so truncation points are identical to
// unbatched emission.
func (j *joiner) emitCurrent() {
	if j.aborted() {
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
	n := len(j.assignment)
	if cap(j.block)-len(j.block) < n {
		j.block = slices.Grow(j.block, max(len(j.block), minMatchBlock*n))
	}
	j.block = append(j.block, j.assignment...)
	if len(j.block) >= j.bufCap*n {
		j.flushBuf()
	}
}

// aborted is polled before every relation advance and accepted match. Done
// closes late while every P is busy, so every abortPoll polls (not every
// poll: this is the join's hottest path) the clock is read too (ctxErr).
func (j *joiner) aborted() bool {
	if j.ctx == nil { // a joiner outside a run
		return false
	}
	select {
	case <-j.ctx.Done():
		return true
	default:
		j.polls++
		return j.stop.Load() || j.polls%abortPoll == 0 && ctxErr(j.ctx) != nil
	}
}

// bind assigns data vertex id to the currently unbound query vertex v,
// enforcing injectivity; it returns false (without binding) when id is
// already in use by another query vertex. The assignment has one entry per
// query vertex, so scanning it is the whole check.
func (j *joiner) bind(v int, id graph.NodeID) bool {
	for _, a := range j.assignment {
		if a == id {
			return false
		}
	}
	j.assignment[v] = id
	return true
}

func (j *joiner) unbind(v int) { j.assignment[v] = graph.InvalidNode }

// sortRelationsDeterministic puts relations in root-id order before the join
// order is chosen: that order is the one orderRelations breaks its last ties
// by, and what NoJoinOrderOpt keeps.
func sortRelationsDeterministic(rels []*relation) {
	slices.SortStableFunc(rels, func(a, b *relation) int {
		return cmp.Compare(a.twig.Root, b.twig.Root)
	})
}

// joinScratch is one machine's reusable join state: its relations (indexed
// by STwig) with their buffers, and the join order over them.
type joinScratch struct {
	rels  []relation
	order []*relation
}

// relations returns n reset-able relations and the order slice over them.
func (js *joinScratch) relations(n int) []*relation {
	js.rels = reuse(js.rels, n)[:n]
	js.order = js.order[:0]
	for i := range js.rels {
		js.order = append(js.order, &js.rels[i])
	}
	return js.order
}

// release drops what the finished run left referenced from the scratch.
func (js *joinScratch) release() {
	for i := range js.rels {
		js.rels[i].release()
	}
	clear(js.order)
}

// idleBytes is the memory a released joinScratch keeps for the next run
// (capacities times element sizes).
func (js *joinScratch) idleBytes() int {
	n := 0
	for i := range js.rels[:cap(js.rels)] {
		r := &js.rels[:cap(js.rels)][i]
		n += 32 * cap(r.own)
		for _, ix := range r.idx[:cap(r.idx)] {
			n += 16 * cap(ix.postings)
		}
	}
	return n
}

// release drops the run a pooled joiner worked for; its buffers stay.
func (j *joiner) release() {
	*j = joiner{assignment: j.assignment, block: j.block}
}
