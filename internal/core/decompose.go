package core

import (
	"math"
	"math/rand"
	"sort"
)

// Decomposition and ordering (§5.1, §5.2, Algorithm 2).
//
// Finding a minimum STwig cover is NP-hard (Theorem 1: polynomially
// equivalent to minimum vertex cover). Algorithm 2 is the paper's revised
// 2-approximation that simultaneously picks a processing order in which, as
// far as possible, each STwig's root is already bound by an earlier STwig,
// and prefers selective STwigs via the f-value f(v) = deg(v)/freq(label(v)).

// FValues computes f(v) for every query vertex given the data-graph
// frequency of each vertex's label. A zero frequency (label absent from the
// data) yields +Inf: such a vertex is infinitely selective, and the engine
// short-circuits the query to zero results before decomposition anyway.
func FValues(q *Query, labelFreq []int64) []float64 {
	f := make([]float64, q.NumVertices())
	for v := range f {
		if labelFreq[v] <= 0 {
			f[v] = math.Inf(1)
			continue
		}
		f[v] = float64(q.Degree(v)) / float64(labelFreq[v])
	}
	return f
}

// decomposer is the edge set a decomposition consumes, on slices: alive[off[v]+i]
// reports whether the edge to q.Neighbors(v)[i] is still uncovered, deg[v]
// counts v's uncovered edges. Taken STwigs accumulate in twigs, their leaves
// in one array.
type decomposer struct {
	q      *Query
	off    []int
	deg    []int
	alive  []bool
	inS    []bool // the set S of Algorithm 2 (DecomposeOrdered's)
	left   int
	twigs  []STwig
	leaves []int
}

func newDecomposer(q *Query) decomposer {
	n, m := q.NumVertices(), q.NumEdges()
	ints, bools := make([]int, 2*n+1), make([]bool, 2*m+n)
	d := decomposer{q: q, off: ints[:n+1], deg: ints[n+1:], alive: bools[:2*m], inS: bools[2*m:], left: m,
		twigs: make([]STwig, 0, min(n, m)), leaves: make([]int, 0, m)}
	for v := 0; v < n; v++ {
		d.deg[v] = q.Degree(v)
		d.off[v+1] = d.off[v] + d.deg[v]
	}
	for i := range d.alive {
		d.alive[i] = true
	}
	return d
}

// has reports whether the edge from a to its i-th neighbour is uncovered.
func (d *decomposer) has(a, i int) bool { return d.alive[d.off[a]+i] }

// take emits the STwig rooted at v over all of v's uncovered edges, in
// neighbour order, removes those edges and returns the leaves.
func (d *decomposer) take(v int) []int {
	start := len(d.leaves)
	for i, u := range d.q.Neighbors(v) {
		if !d.has(v, i) {
			continue
		}
		d.leaves = append(d.leaves, u)
		d.alive[d.off[v]+i] = false
		d.alive[d.off[u]+sort.SearchInts(d.q.Neighbors(u), v)] = false
		d.deg[v]--
		d.deg[u]--
		d.left--
	}
	leaves := d.leaves[start:len(d.leaves):len(d.leaves)]
	d.twigs = append(d.twigs, STwig{Root: v, Leaves: leaves})
	return leaves
}

func (d *decomposer) decomposition() Decomposition {
	return Decomposition{Twigs: d.twigs[:len(d.twigs):len(d.twigs)]}
}

// DecomposeOrdered runs Algorithm 2: it returns an ordered STwig cover of q
// guided by f-values. The head STwig is chosen separately (SelectHead); the
// returned Decomposition.Head is 0 until then.
func DecomposeOrdered(q *Query, f []float64) Decomposition {
	d := newDecomposer(q)
	inS := d.inS
	// takeTwig emits the STwig rooted at v and adds its leaves to S.
	takeTwig := func(v int) {
		for _, u := range d.take(v) {
			inS[u] = true
		}
	}
	for d.left > 0 {
		v, u := pickEdge(&d, f)
		takeTwig(v)
		if d.deg[u] > 0 {
			takeTwig(u)
		}
		// "remove u, v and all nodes with degree 0 from S"
		inS[v] = false
		inS[u] = false
		for w := range inS {
			if inS[w] && d.deg[w] == 0 {
				inS[w] = false
			}
		}
	}
	return d.decomposition()
}

// pickEdge selects the next edge per Algorithm 2's two rules: prefer edges
// incident to S (so the root is bound), and among those maximize
// f(u)+f(v). The returned v is the root of the first STwig to emit: the
// S-member when only one endpoint is in S, otherwise the endpoint with the
// larger f-value. Ties break toward smaller vertex indices for determinism.
func pickEdge(d *decomposer, f []float64) (v, u int) {
	inS := d.inS
	bestV, bestU := -1, -1
	bestScore := math.Inf(-1)
	consider := func(a, b int) {
		score := fsum(f[a], f[b])
		if score > bestScore {
			bestScore, bestV, bestU = score, a, b
		}
	}
	anyInS := false
	for w := range inS {
		if inS[w] && d.deg[w] > 0 {
			anyInS = true
			break
		}
	}
	for a := range inS {
		if anyInS && !inS[a] {
			continue
		}
		for i, b := range d.q.Neighbors(a) {
			if d.has(a, i) {
				consider(a, b)
			}
		}
	}
	if bestV == -1 {
		// S nonempty but no remaining edge touches it (possible after the
		// cover disconnects the remainder): fall back to the global best.
		for a := range inS {
			for i, b := range d.q.Neighbors(a) {
				if d.has(a, i) {
					consider(a, b)
				}
			}
		}
	}
	v, u = bestV, bestU
	// When both or neither endpoint is in S, root at the higher f-value
	// (the worked example roots the first STwig at the largest-f vertex).
	if inS[v] == inS[u] && f[u] > f[v] {
		v, u = u, v
	} else if !inS[v] && inS[u] {
		v, u = u, v
	}
	return v, u
}

// fsum adds f-values, tolerating +Inf without producing NaN.
func fsum(a, b float64) float64 {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.Inf(1)
	}
	return a + b
}

// DecomposeRandom is the unrevised 2-approximation of §5.1 — random edge
// selection, no binding-aware ordering, no selectivity guidance. It exists
// as the ablation baseline for Algorithm 2 (BenchmarkAblation_Ordering).
func DecomposeRandom(q *Query, rng *rand.Rand) Decomposition {
	d := newDecomposer(q)
	for d.left > 0 {
		// Reservoir-sample a remaining edge uniformly.
		var ev, eu int
		count := 0
		for a := 0; a < q.NumVertices(); a++ {
			for i, b := range q.Neighbors(a) {
				if a < b && d.has(a, i) {
					count++
					if rng.Intn(count) == 0 {
						ev, eu = a, b
					}
				}
			}
		}
		if rng.Intn(2) == 0 {
			ev, eu = eu, ev
		}
		d.take(ev)
		if d.deg[eu] > 0 {
			d.take(eu)
		}
	}
	return d.decomposition()
}

// MinimumVertexCoverSize computes the exact minimum vertex cover size of q
// by branch and bound. Exponential; only for small test queries, where it
// anchors the 2-approximation property test (Theorem 2: |cover| ≤ 2·OPT,
// and minimum STwig cover size equals minimum vertex cover size by
// Theorem 1).
func MinimumVertexCoverSize(q *Query) int {
	edges := q.Edges()
	best := q.NumVertices()
	inCover := make([]bool, q.NumVertices())
	var rec func(eIdx, size int)
	rec = func(eIdx, size int) {
		if size >= best {
			return
		}
		// Find first uncovered edge.
		for eIdx < len(edges) {
			e := edges[eIdx]
			if !inCover[e[0]] && !inCover[e[1]] {
				break
			}
			eIdx++
		}
		if eIdx == len(edges) {
			best = size
			return
		}
		e := edges[eIdx]
		for _, pick := range [2]int{e[0], e[1]} {
			inCover[pick] = true
			rec(eIdx+1, size+1)
			inCover[pick] = false
		}
	}
	rec(0, 0)
	return best
}
