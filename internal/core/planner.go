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
// network traffic; executing the same Plan twice is therefore free to skip
// it entirely, which is what Engine's plan cache does.
//
// A Planner is stateless between calls and safe for concurrent use.
type Planner struct {
	cluster *memcloud.Cluster
	opts    Options
}

// NewPlanner creates a planner over a loaded cluster. Only the planning
// options (Seed, RandomDecomposition, NoLoadSets) influence its output.
func NewPlanner(c *memcloud.Cluster, opts Options) *Planner {
	return &Planner{cluster: c, opts: normalizeOptions(opts)}
}

// Plan is the immutable planning artifact for one query: the proxy phase's
// complete output plus the estimates that explain it. A Plan holds no
// execution state — bindings, relations, and buffers are per-run scratch
// owned by the Executor — so one Plan is safe for any number of concurrent
// executions, which is what makes caching it worthwhile.
type Plan struct {
	// Query echoes the analyzed pattern. A plan serves every slice of its
	// pattern (Query.Sliced), so a cached plan's Query carries none; the
	// copy Explain hands out carries its caller's.
	Query *Query
	// Center is Query.Center(), the vertex a sliced run cuts the answer
	// along. Unlike the rest of the plan it depends on the pattern alone,
	// not on the cluster's label statistics; it is kept here so that runs
	// of a cached plan do not recompute it.
	Center int
	// Signature is the canonical query signature the plan cache keys on
	// (see Query.Signature).
	Signature string
	// Epoch is the cluster mutation epoch the plan was built at; the cache
	// discards the plan once the cluster's epoch moves past it.
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
	// LoadSets[k][t] lists the machines machine k fetches STwig t's
	// matches from (Theorem 4); empty for the head STwig.
	LoadSets [][][]int
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
// EXPLAIN, so an explained plan is exactly the artifact a later execution
// (or a plan-cache hit) will run.
func (p *Planner) Plan(q *Query) (*Plan, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	return p.buildPlan(q, q.Signature()), nil
}

// buildPlan is Plan after validation, with the signature already computed —
// Engine.planFor needs both for the cache lookup and must not pay for them
// twice on a miss.
func (p *Planner) buildPlan(q *Query, signature string) *Plan {
	start := time.Now()
	plan := &Plan{
		Query:     q.unsliced(),
		Center:    q.Center(),
		Signature: signature,
		Epoch:     p.cluster.Epoch(),
	}

	// Label resolution; a label absent from the data graph means zero
	// matches without touching the cluster.
	labels, ok := q.resolveLabels(p.cluster.Labels())
	if !ok {
		plan.BuildTime = time.Since(start)
		return plan
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
	dec.Head = SelectHead(cg, q, dec.Twigs)
	plan.Decomposition = dec
	if p.opts.NoLoadSets {
		plan.LoadSets = allToAllLoadSets(p.cluster.NumMachines(), dec)
	} else {
		plan.LoadSets = LoadSets(cg, q, dec)
	}

	plan.RootCandidates = make([]int64, len(dec.Twigs))
	for t, twig := range dec.Twigs {
		plan.RootCandidates[t] = freq[twig.Root]
	}
	for i := 0; i < p.cluster.NumMachines(); i++ {
		for j := 0; j < p.cluster.NumMachines(); j++ {
			if d := cg.Distance(i, j); d != Unreachable && d > plan.ClusterDiameter {
				plan.ClusterDiameter = d
			}
		}
	}
	for _, t := range dec.Twigs {
		plan.planWords += 1 + len(t.Leaves)
	}
	plan.BuildTime = time.Since(start)
	return plan
}

// clone returns a deep copy of the plan: same Query pointer (queries are
// immutable once built), fresh slices everywhere else.
func (p *Plan) clone() *Plan {
	cp := *p
	cp.Decomposition = p.Decomposition.clone()
	cp.RootCandidates = append([]int64(nil), p.RootCandidates...)
	cp.FValues = append([]float64(nil), p.FValues...)
	if p.LoadSets != nil {
		cp.LoadSets = make([][][]int, len(p.LoadSets))
		for k, perTwig := range p.LoadSets {
			cp.LoadSets[k] = make([][]int, len(perTwig))
			for t, set := range perTwig {
				cp.LoadSets[k][t] = append([]int(nil), set...)
			}
		}
	}
	cp.labels = append([]graph.LabelID(nil), p.labels...)
	return &cp
}

// allToAllLoadSets is the NoLoadSets ablation: every machine fetches every
// non-head STwig's matches from every other machine.
func allToAllLoadSets(k int, dec Decomposition) [][][]int {
	F := make([][][]int, k)
	for machine := 0; machine < k; machine++ {
		F[machine] = make([][]int, len(dec.Twigs))
		for t := range dec.Twigs {
			if t == dec.Head {
				continue
			}
			for j := 0; j < k; j++ {
				if j != machine {
					F[machine][t] = append(F[machine][t], j)
				}
			}
		}
	}
	return F
}
