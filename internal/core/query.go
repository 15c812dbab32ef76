// Package core implements the paper's contribution: STwig-based distributed
// subgraph matching. A query graph is decomposed into two-level tree units
// (STwigs) with Algorithm 2, matched by exploration over a memcloud.Cluster
// with binding propagation (§4.2), and assembled by per-machine multi-way
// joins whose communication is bounded by cluster-graph load sets (§5.3).
//
// The package is layered as a Planner → Plan → Executor pipeline: the
// Planner compiles a Query into an immutable Plan (decomposition, STwig
// order, load sets — the paper's proxy phase, over label statistics only),
// the Executor runs a Plan against the cluster with per-run scratch state,
// and Engine glues them together, planning every query afresh.
package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"stwig/internal/graph"
)

// Query is a connected, vertex-labeled pattern graph (Definition 1).
// Vertices are dense indices 0..NumVertices()-1; labels are strings resolved
// against the data graph's label table at execution time.
type Query struct {
	labels []string
	adj    [][]int
	m      int
	// slice is the part of the answer a run of this query produces (see
	// Sliced); the whole id space unless Sliced set it.
	slice idRange
}

// idRange is the half-open range [lo, hi) of data-vertex ids.
type idRange struct{ lo, hi graph.NodeID }

// wholeIDSpace is the slice of an unsliced query: hi is the largest NodeID,
// which a dense id space never reaches.
var wholeIDSpace = idRange{0, math.MaxInt64}

func (r idRange) contains(id graph.NodeID) bool { return r.lo <= id && id < r.hi }

// String renders [lo, hi), spelling the open end of the id space as +inf.
func (r idRange) String() string {
	if r.hi == wholeIDSpace.hi {
		return fmt.Sprintf("[%d, +inf)", r.lo)
	}
	return fmt.Sprintf("[%d, %d)", r.lo, r.hi)
}

// cut returns the part of ids, sorted ascending, that lies in the range.
func (r idRange) cut(ids []graph.NodeID) []graph.NodeID {
	from, _ := slices.BinarySearch(ids, r.lo)
	to, _ := slices.BinarySearch(ids[from:], r.hi)
	return ids[from : from+to]
}

// NewQuery builds a query from per-vertex labels and undirected edges.
// Self-loops, duplicate edges, and out-of-range endpoints are rejected;
// subgraph matching per Definition 2 needs a simple pattern.
func NewQuery(labels []string, edges [][2]int) (*Query, error) {
	n := len(labels)
	if n == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	q := &Query{labels: append([]string(nil), labels...), adj: make([][]int, n), slice: wholeIDSpace}
	// Every adjacency list is carved from one array, sized by a first pass
	// that counts degrees up to the first edge out of range or looping. The
	// second pass fills the lists up to that edge, so the error reported is
	// the first edge's in order, as it would be in one pass.
	var small [16]int
	deg := small[:0]
	if n <= len(small) {
		deg = small[:n]
	} else {
		deg = make([]int, n)
	}
	bad := len(edges)
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			bad = i
			break
		}
		deg[u]++
		deg[v]++
	}
	back := make([]int, 0, 2*bad)
	for v, d := range deg {
		q.adj[v] = back[len(back) : len(back) : len(back)+d]
		back = back[:len(back)+d]
	}
	for _, e := range edges[:bad] {
		u, v := e[0], e[1]
		// A pattern vertex has a handful of neighbours: a scan of u's list
		// so far is the duplicate check.
		if slices.Contains(q.adj[u], v) {
			return nil, fmt.Errorf("core: duplicate query edge (%d,%d)", u, v)
		}
		q.adj[u] = append(q.adj[u], v)
		q.adj[v] = append(q.adj[v], u)
		q.m++
	}
	if bad < len(edges) {
		u, v := edges[bad][0], edges[bad][1]
		if u == v && u >= 0 && u < n {
			return nil, fmt.Errorf("core: query self-loop at vertex %d", u)
		}
		return nil, fmt.Errorf("core: query edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	for i := range q.adj {
		sort.Ints(q.adj[i])
	}
	return q, nil
}

// MustNewQuery is NewQuery that panics on error.
func MustNewQuery(labels []string, edges [][2]int) *Query {
	q, err := NewQuery(labels, edges)
	if err != nil {
		panic(err)
	}
	return q
}

// NumVertices returns the number of pattern vertices.
func (q *Query) NumVertices() int { return len(q.labels) }

// NumEdges returns the number of pattern edges.
func (q *Query) NumEdges() int { return q.m }

// Label returns the label string of pattern vertex v.
func (q *Query) Label(v int) string { return q.labels[v] }

// Labels returns a copy of all vertex labels.
func (q *Query) Labels() []string { return append([]string(nil), q.labels...) }

// Neighbors returns the sorted adjacency of pattern vertex v (shared slice).
func (q *Query) Neighbors(v int) []int { return q.adj[v] }

// Degree returns the degree of pattern vertex v.
func (q *Query) Degree(v int) int { return len(q.adj[v]) }

// HasEdge reports whether u and v are adjacent.
func (q *Query) HasEdge(u, v int) bool {
	ns := q.adj[u]
	i := sort.SearchInts(ns, v)
	return i < len(ns) && ns[i] == v
}

// Edges returns every undirected edge once, as ordered pairs with u < v.
func (q *Query) Edges() [][2]int {
	var out [][2]int
	for u := range q.adj {
		for _, v := range q.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Connected reports whether the pattern is connected. The engine rejects
// disconnected patterns: matching them is a cartesian product of component
// matches and is out of the paper's scope.
func (q *Query) Connected() bool {
	if len(q.labels) == 0 {
		return false
	}
	// One array: a seen flag per vertex, then the stack, where a vertex is
	// pushed once, when first seen.
	n := len(q.labels)
	buf := make([]int, 2*n)
	seen, stack := buf[:n], append(buf[n:n], 0)
	seen[0] = 1
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range q.adj[v] {
			if seen[u] == 0 {
				seen[u] = 1
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == n
}

// ShortestPaths returns the all-pairs hop distances of the pattern via the
// Floyd–Warshall algorithm, as the paper's head-STwig selection prescribes
// (§5.3). Unreachable pairs hold Unreachable.
func (q *Query) ShortestPaths() [][]int {
	n := len(q.labels)
	d := make([][]int, n)
	cells := make([]int, n*n) // one array for all rows
	for i := range d {
		d[i] = cells[i*n : (i+1)*n : (i+1)*n]
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = Unreachable
			}
		}
	}
	for u := range q.adj {
		for _, v := range q.adj[u] {
			d[u][v] = 1
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] == Unreachable {
				continue
			}
			for j := 0; j < n; j++ {
				if d[k][j] == Unreachable {
					continue
				}
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

// Unreachable marks a pair with no connecting path in distance matrices.
const Unreachable = 1 << 30

// Center returns the pattern's centre vertex: the one of least eccentricity
// (largest hop distance to any other vertex), ties going to the higher
// degree and then to the lower index. It is the vertex a sliced run cuts the
// answer along (see Sliced) — the plan-free twin of §5.3's head-STwig rule,
// which also looks for the vertex every other is close to: a restriction on
// it reaches every STwig within the fewest binding steps. It is a function
// of the pattern alone — no label statistics, no plan — so every replica of
// a graph names the same vertex whatever its planner decided.
func (q *Query) Center() int { return q.center(q.ShortestPaths()) }

// center is Center over the pattern's ShortestPaths d, which the planner
// computes once and shares.
func (q *Query) center(d [][]int) int {
	best, bestEcc := 0, Unreachable+1
	for v := range d {
		ecc := 0
		for _, hops := range d[v] {
			ecc = max(ecc, hops)
		}
		if ecc < bestEcc || (ecc == bestEcc && q.Degree(v) > q.Degree(best)) {
			best, bestEcc = v, ecc
		}
	}
	return best
}

// Sliced returns a copy of q whose runs produce exactly the matches that
// assign the centre vertex (Center) a data vertex in [lo, hi): one part of
// the answer, cut out during exploration rather than filtered from the whole.
// Runs of copies whose ranges partition the id space produce disjoint parts
// whose union is q's answer. The slice is a property of the run, not of the
// pattern: every copy is planned alike, and only EXPLAIN's slice line tells
// their plans apart.
func (q *Query) Sliced(lo, hi graph.NodeID) *Query {
	cp := *q
	cp.slice = idRange{lo, hi}
	return &cp
}

// resolveLabels maps each pattern vertex's label string to the data graph's
// LabelID. ok is false when some label does not occur in the data graph at
// all, in which case the query trivially has no matches.
func (q *Query) resolveLabels(table *graph.LabelTable) (ids []graph.LabelID, ok bool) {
	ids = make([]graph.LabelID, len(q.labels))
	for v, name := range q.labels {
		id, found := table.Lookup(name)
		if !found {
			return nil, false
		}
		ids[v] = id
	}
	return ids, true
}

// ParseQuery reads the same line format as graph text files:
//
//	v <index> <label>
//	e <u> <v>
func ParseQuery(r io.Reader) (*Query, error) {
	sc := bufio.NewScanner(r)
	var labels []string
	var edges [][2]int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "v":
			if len(f) != 3 {
				return nil, fmt.Errorf("core: query line %d: want 'v <id> <label>'", lineNo)
			}
			id, err := strconv.Atoi(f[1])
			if err != nil || id != len(labels) {
				return nil, fmt.Errorf("core: query line %d: vertex ids must be dense and in order", lineNo)
			}
			labels = append(labels, f[2])
		case "e":
			if len(f) != 3 {
				return nil, fmt.Errorf("core: query line %d: want 'e <u> <v>'", lineNo)
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("core: query line %d: bad edge", lineNo)
			}
			edges = append(edges, [2]int{u, v})
		default:
			return nil, fmt.Errorf("core: query line %d: unknown record %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewQuery(labels, edges)
}

// String renders the query in the parseable text format. It is canonical:
// edges come out sorted (see Edges), so two spellings of one pattern — edge
// literals reordered or reoriented — render the same text.
func (q *Query) String() string {
	var b strings.Builder
	for v, l := range q.labels {
		fmt.Fprintf(&b, "v %d %s\n", v, l)
	}
	for _, e := range q.Edges() {
		fmt.Fprintf(&b, "e %d %d\n", e[0], e[1])
	}
	return b.String()
}
