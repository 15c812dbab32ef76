package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/stats"
	"stwig/internal/workload"
)

// RunAblations measures the paper's design choices, each against the full
// configuration on the same graph and query set. "full (paper)" is the
// paper's configuration, join included: each machine block-joins its exactly
// sized relations as the exchange assembled them (§4.3), with no pass in
// between. Each other row turns one of the paper's choices off:
//
//	bindings off      — §4.2's exploration without binding propagation,
//	                    §3's "join everything" strategy
//	load sets off     — all-to-all result exchange instead of §5.3's load sets
//	random cover      — unrevised decomposition instead of §5.2's Algorithm 2
//	join order off    — fixed relation order in §4.3's join
//
// Reported per variant: average query time and network bytes. Result sets
// are identical across variants (asserted by the core test suite), so the
// differences isolate cost.
func RunAblations(cfg Config) (*stats.Table, error) {
	g, err := workload.SynthPatents(workload.PatentsParams{
		Nodes: cfg.scaled(30_000), Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	dfs, err := dfsQuerySet(g, 7, cfg)
	if err != nil {
		return nil, err
	}
	rnd, err := randomQuerySet(g, 8, 14, cfg)
	if err != nil {
		return nil, err
	}
	queries := append(append([]*core.Query(nil), dfs...), rnd...)

	variants := []struct {
		name string
		opts core.Options
	}{
		{"full (paper)", core.Options{}},
		{"no bindings", core.Options{NoBindings: true}},
		{"no load sets", core.Options{NoLoadSets: true}},
		{"random decomposition", core.Options{RandomDecomposition: true}},
		{"no join order opt", core.Options{NoJoinOrderOpt: true}},
	}
	tab := stats.NewTable("variant", "avg_query_time", "net_bytes", "net_messages")
	for _, v := range variants {
		cluster, err := memcloud.NewCluster(memcloud.Config{Machines: cfg.Machines})
		if err != nil {
			return nil, err
		}
		if err := cluster.LoadGraph(g); err != nil {
			return nil, err
		}
		opts := v.opts
		opts.MatchBudget = cfg.Budget
		opts.Seed = cfg.Seed
		eng := core.NewEngine(cluster, opts)
		var total time.Duration
		var net memcloud.NetStats
		for _, q := range queries {
			start := time.Now()
			res, err := eng.Match(q)
			if err != nil {
				return nil, err
			}
			total += time.Since(start)
			net.Add(res.Stats.Net)
		}
		tab.AddRow(v.name, total/time.Duration(len(queries)), net.Bytes, net.Messages)
	}

	// Load-set pruning only bites when the cluster graph is not complete.
	// Under hash partitioning every label pair spans every machine pair,
	// so D_C ≡ 1 and Theorem 4 admits everyone — an honest negative (the
	// paper's own experiments randomly partition and lean on the head
	// STwig for disjointness, not savings). A locality-preserving range
	// partition over a community-structured graph is where §5.3's bound
	// shows; measure it separately.
	locTab, err := runLocalityLoadSets(cfg)
	if err != nil {
		return nil, err
	}
	for _, row := range locTab {
		tab.AddRow(row...)
	}
	return tab, nil
}

// runLocalityLoadSets compares load-set exchange vs all-to-all on a
// range-partitioned ring-of-communities graph, returning extra rows.
func runLocalityLoadSets(cfg Config) ([][]interface{}, error) {
	g := communityRing(cfg.scaled(20_000), 64, cfg.Seed)
	// A 4-vertex path decomposes into two STwigs with adjacent roots
	// (d(r_head, r_t) = 1), so machine k only needs results from machines
	// within cluster-graph distance 1 — on a ring partition, 2 of the k-1
	// remote machines. A 3-vertex path would decompose into a single STwig
	// and exchange nothing.
	q, err := core.NewQuery(
		[]string{"c0", "c1", "c2", "c3"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}},
	)
	if err != nil {
		return nil, err
	}
	queries := []*core.Query{q}
	var rows [][]interface{}
	for _, v := range []struct {
		name string
		part memcloud.Partitioner
		opts core.Options
	}{
		{"locality(range) + load sets", memcloud.RangePartitioner{K: cfg.Machines, N: g.NumNodes()}, core.Options{}},
		{"locality(range) + all-to-all", memcloud.RangePartitioner{K: cfg.Machines, N: g.NumNodes()}, core.Options{NoLoadSets: true}},
		{"locality(bfs) + load sets", memcloud.NewBFSPartitioner(g, cfg.Machines), core.Options{}},
		{"hash + load sets", nil, core.Options{}},
	} {
		cluster, err := memcloud.NewCluster(memcloud.Config{
			Machines:    cfg.Machines,
			Partitioner: v.part,
		})
		if err != nil {
			return nil, err
		}
		if err := cluster.LoadGraph(g); err != nil {
			return nil, err
		}
		opts := v.opts
		opts.MatchBudget = cfg.Budget
		opts.Seed = cfg.Seed
		eng := core.NewEngine(cluster, opts)
		var total time.Duration
		var net memcloud.NetStats
		for _, q := range queries {
			start := time.Now()
			res, err := eng.Match(q)
			if err != nil {
				return nil, err
			}
			total += time.Since(start)
			net.Add(res.Stats.Net)
		}
		rows = append(rows, []interface{}{v.name, total / time.Duration(len(queries)), net.Bytes, net.Messages})
	}
	return rows, nil
}

// communityRing builds a graph of ID-contiguous communities arranged in a
// ring: community i links only to communities i±1, and each community has
// its own label alphabet ("c<j>" cycling over 8 classes). Range-partitioned
// over k machines, the cluster graph becomes a ring instead of a clique.
func communityRing(nodes int64, communitySize int64, seed int64) *graph.Graph {
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	rng := rand.New(rand.NewSource(seed))
	numComms := nodes / communitySize
	if numComms < 2 {
		numComms = 2
	}
	total := numComms * communitySize
	for v := int64(0); v < total; v++ {
		b.AddNode(fmt.Sprintf("c%d", v%8))
	}
	for c := int64(0); c < numComms; c++ {
		base := c * communitySize
		// Dense-ish intra-community wiring.
		for i := int64(0); i < communitySize*3; i++ {
			u := base + rng.Int63n(communitySize)
			v := base + rng.Int63n(communitySize)
			if u != v {
				b.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
		// A couple of bridges to the next community around the ring.
		next := ((c + 1) % numComms) * communitySize
		for i := 0; i < 2; i++ {
			b.MustAddEdge(
				graph.NodeID(base+rng.Int63n(communitySize)),
				graph.NodeID(next+rng.Int63n(communitySize)),
			)
		}
	}
	return b.Build()
}
