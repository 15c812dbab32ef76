package core

import (
	"fmt"
	"math/rand"
	"time"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// Planner turns a Query into an immutable Plan: everything about an
// execution that is derivable from the query plus cluster label statistics
// alone — STwig decomposition and ordering (Algorithm 2), head-STwig
// selection and load sets (§5.3), and the selectivity estimates that guide
// the join. Planning never touches vertex data, so it costs no simulated
// network traffic, and it is cheap enough (a few allocations, O(|q|·k²)
// work) to run for every query.
//
// A Planner is stateless between calls and safe for concurrent use.
type Planner struct {
	cluster *memcloud.Cluster
	opts    Options
}

// NewPlanner creates a planner over a loaded cluster. Only the planning
// options influence its output: RandomDecomposition, with the Seed it draws
// from, and NoLoadSets.
func NewPlanner(c *memcloud.Cluster, opts Options) *Planner {
	return &Planner{cluster: c, opts: normalizeOptions(opts)}
}

// Plan is the immutable planning artifact for one query: the proxy phase's
// complete output plus the estimates that explain it. A Plan holds no
// execution state — bindings, relations, and buffers are per-run scratch
// owned by the Executor.
type Plan struct {
	// Query is the planned query, slice included (Query.Sliced).
	Query *Query
	// Center is Query.Center(), the vertex a sliced run cuts the answer
	// along. Unlike the rest of the plan it depends on the pattern alone,
	// not on the cluster's label statistics.
	Center int
	// Epoch is the cluster mutation epoch the plan was built at.
	Epoch uint64
	// BuildTime is how long the planner took to construct this plan.
	BuildTime time.Duration
	// Resolvable is false when some query label does not occur in the data
	// graph at all; the query is then answered empty without execution and
	// the remaining fields are zero.
	Resolvable bool
	// Decomposition is the ordered STwig cover with Head set.
	Decomposition Decomposition
	// RootCandidates[t] is the cluster-wide number of vertices carrying
	// STwig t's root label — the size of the Index.getID scan that seeds
	// the STwig before binding filters.
	RootCandidates []int64
	// FValues[v] is the selectivity score f(v) = deg(v)/freq(label(v))
	// that guided Algorithm 2.
	FValues []float64
	// LoadSets holds, per machine k and STwig t, the machines k fetches t's
	// matches from (Theorem 4); empty for the head STwig.
	LoadSets LoadSets
	// ClusterDiameter is the largest finite pairwise distance in the
	// query-specific cluster graph (0 for a single machine).
	ClusterDiameter int
	// labels[v] is the resolved data-graph LabelID of query vertex v.
	labels []graph.LabelID
	// planWords is the wire size of the plan broadcast: the executor
	// accounts one planWords-sized proxy message per machine per run.
	planWords int
}

// ValidateQuery reports whether q is a pattern the engine accepts:
// nonempty, connected, with at least one edge. Front ends (the CLI, the
// query service) call it before execution so malformed requests fail fast
// with a client error instead of surfacing mid-stream.
func ValidateQuery(q *Query) error { return validateQuery(q) }

// validateQuery applies the engine's admission rules; the error messages
// are part of the public behavior (tests match on them).
func validateQuery(q *Query) error {
	if q.NumVertices() == 0 {
		return fmt.Errorf("core: empty query")
	}
	if !q.Connected() {
		return fmt.Errorf("core: query graph must be connected")
	}
	if q.NumEdges() == 0 {
		return fmt.Errorf("core: query must have at least one edge")
	}
	return nil
}

// Plan builds the execution plan for q. The same code path serves Match and
// EXPLAIN, so an explained plan is exactly the artifact an execution of the
// same query at the same cluster epoch runs.
func (p *Planner) Plan(q *Query) (*Plan, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	start := time.Now()
	qd := q.ShortestPaths() // shared by the centre, the head and the load sets
	plan := &Plan{
		Query:  q,
		Center: q.center(qd),
		Epoch:  p.cluster.Epoch(),
	}

	// Label resolution; a label absent from the data graph means zero
	// matches without touching the cluster.
	labels, ok := q.resolveLabels(p.cluster.Labels())
	if !ok {
		plan.BuildTime = time.Since(start)
		return plan, nil
	}
	plan.Resolvable = true
	plan.labels = labels

	// Selectivity statistics drive Algorithm 2's ordering.
	freq := make([]int64, q.NumVertices())
	for v := range freq {
		freq[v] = p.cluster.GlobalLabelCount(labels[v])
	}
	plan.FValues = FValues(q, freq)

	// Decomposition + ordering, head STwig, load sets.
	var dec Decomposition
	if p.opts.RandomDecomposition {
		dec = DecomposeRandom(q, rand.New(rand.NewSource(p.opts.Seed)))
	} else {
		dec = DecomposeOrdered(q, plan.FValues)
	}
	cg := BuildClusterGraph(p.cluster, q, labels)
	dec.Head = cg.SelectHead(qd, dec.Twigs)
	plan.Decomposition = dec
	if p.opts.NoLoadSets {
		plan.LoadSets = allToAllLoadSets(cg.k, dec)
	} else {
		plan.LoadSets = cg.LoadSets(qd, dec)
	}

	plan.RootCandidates = make([]int64, len(dec.Twigs))
	for t, twig := range dec.Twigs {
		plan.RootCandidates[t] = freq[twig.Root]
		plan.planWords += 1 + len(twig.Leaves)
	}
	for _, d := range cg.dist {
		if d != Unreachable && d > plan.ClusterDiameter {
			plan.ClusterDiameter = d
		}
	}
	plan.BuildTime = time.Since(start)
	return plan, nil
}
