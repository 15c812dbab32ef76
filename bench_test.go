// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), one testing.B benchmark per exhibit, plus ablation benches for the
// design choices DESIGN.md §6 calls out. Absolute numbers are
// simulator-scale; EXPERIMENTS.md compares the *shapes* against the paper.
//
// Run everything:  go test -bench=. -benchmem
// One exhibit:     go test -bench=BenchmarkFig9a -benchmem
package stwig_test

import (
	"fmt"
	"math/rand"
	"testing"

	"path/filepath"
	"stwig/internal/baseline"
	"stwig/internal/core"

	"stwig/internal/graph"
	"stwig/internal/journal"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
	"stwig/internal/rmat"
	"stwig/internal/workload"
)

const benchSeed = 1234

// benchCluster loads g onto k machines or fails the benchmark.
func benchCluster(b *testing.B, g *graph.Graph, k int) *memcloud.Cluster {
	b.Helper()
	c := memcloud.MustNewCluster(memcloud.Config{Machines: k})
	if err := c.LoadGraph(g); err != nil {
		b.Fatal(err)
	}
	return c
}

// benchQueries builds a reusable query set or fails the benchmark.
func benchQueries(b *testing.B, count int, gen func() (*core.Query, error)) []*core.Query {
	b.Helper()
	qs, err := workload.QuerySet(count, gen)
	if err != nil {
		b.Fatal(err)
	}
	return qs
}

// runQueriesRoundRobin cycles through queries for b.N iterations.
func runQueriesRoundRobin(b *testing.B, eng *core.Engine, qs []*core.Query) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Match(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// patentsBench / wordnetBench are the real-data stand-ins at bench scale.
func patentsBench(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := workload.SynthPatents(workload.PatentsParams{Nodes: 30_000, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func wordnetBench(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := workload.SynthWordNet(workload.WordNetParams{Nodes: 20_000, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// ---------------------------------------------------------------- Table 1

// BenchmarkTable1_STwigQuery is the paper's headline row: STwig query time
// with only the linear string index.
func BenchmarkTable1_STwigQuery(b *testing.B) {
	g := patentsBench(b)
	c := benchCluster(b, g, 8)
	eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
	rng := rand.New(rand.NewSource(benchSeed))
	qs := benchQueries(b, 10, func() (*core.Query, error) {
		return workload.RandomQuery(4, 4, workload.GraphLabels(g), rng)
	})
	runQueriesRoundRobin(b, eng, qs)
}

// BenchmarkTable1_UllmannQuery is the group-1 comparator (no index).
func BenchmarkTable1_UllmannQuery(b *testing.B) {
	g := patentsBench(b)
	rng := rand.New(rand.NewSource(benchSeed))
	qs := benchQueries(b, 5, func() (*core.Query, error) {
		return workload.RandomQuery(4, 4, workload.GraphLabels(g), rng)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Ullmann(g, qs[i%len(qs)], 1024)
	}
}

// BenchmarkTable1_VF2Query is the group-1 comparator (no index, pruned).
func BenchmarkTable1_VF2Query(b *testing.B) {
	g := patentsBench(b)
	rng := rand.New(rand.NewSource(benchSeed))
	qs := benchQueries(b, 5, func() (*core.Query, error) {
		return workload.RandomQuery(4, 4, workload.GraphLabels(g), rng)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.VF2(g, qs[i%len(qs)], 1024)
	}
}

// BenchmarkTable1_EdgeJoinQuery is the group-2 comparator (edge index +
// multiway joins).
func BenchmarkTable1_EdgeJoinQuery(b *testing.B) {
	g := patentsBench(b)
	ix := baseline.BuildEdgeIndex(g)
	rng := rand.New(rand.NewSource(benchSeed))
	qs := benchQueries(b, 10, func() (*core.Query, error) {
		return workload.RandomQuery(4, 4, workload.GraphLabels(g), rng)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Match(qs[i%len(qs)], 1024, 4_000_000); err != nil {
			// Intermediate blowups are a finding, not a failure.
			continue
		}
	}
}

// BenchmarkTable1_IndexBuild contrasts index construction cost: the STwig
// string index (via cluster load) vs edge index vs signature indexes.
func BenchmarkTable1_IndexBuild(b *testing.B) {
	g := patentsBench(b)
	b.Run("StringIndexLoad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := memcloud.MustNewCluster(memcloud.Config{Machines: 8})
			if err := c.LoadGraph(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EdgeIndex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.BuildEdgeIndex(g)
		}
	})
	b.Run("SignatureR1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.BuildSignatureIndex(g, 1)
		}
	})
	b.Run("SignatureR2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.BuildSignatureIndex(g, 2)
		}
	})
}

// ---------------------------------------------------------------- Table 2

// BenchmarkTable2_Load measures graph-load time at growing node counts: the
// paper's Table 2 (load time ≈ linear in nodes). The last row holds the
// largest graph at 1024 labels, where the cross-pair table of §5.3 has
// hundreds of thousands of label pairs to record instead of about two
// thousand.
func BenchmarkTable2_Load(b *testing.B) {
	for _, row := range []struct{ scale, labels int }{{13, 64}, {15, 64}, {17, 64}, {17, 1024}} {
		g := rmat.MustGenerate(rmat.Params{Scale: row.scale, AvgDegree: 16, NumLabels: row.labels, Seed: benchSeed})
		name := fmt.Sprintf("nodes=%d", g.NumNodes())
		if row.labels != 64 {
			name += fmt.Sprintf("/labels=%d", row.labels)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := memcloud.MustNewCluster(memcloud.Config{Machines: 8})
				if err := c.LoadGraph(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------- Figure 8

// BenchmarkFig8a_DFSQuerySize: run time vs DFS-query node count on both
// real-data stand-ins.
func BenchmarkFig8a_DFSQuerySize(b *testing.B) {
	for _, ds := range []struct {
		name string
		g    *graph.Graph
	}{{"patents", patentsBench(b)}, {"wordnet", wordnetBench(b)}} {
		c := benchCluster(b, ds.g, 8)
		eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
		for _, n := range []int{3, 5, 7, 10} {
			rng := rand.New(rand.NewSource(benchSeed))
			qs := benchQueries(b, 5, func() (*core.Query, error) {
				return workload.DFSQuery(ds.g, n, rng)
			})
			b.Run(fmt.Sprintf("%s/nodes=%d", ds.name, n), func(b *testing.B) {
				runQueriesRoundRobin(b, eng, qs)
			})
		}
	}
}

// BenchmarkFig8b_RandomQuerySize: run time vs random-query node count
// (E = 2N).
func BenchmarkFig8b_RandomQuerySize(b *testing.B) {
	g := patentsBench(b)
	c := benchCluster(b, g, 8)
	eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
	for _, n := range []int{5, 9, 13, 15} {
		rng := rand.New(rand.NewSource(benchSeed))
		qs := benchQueries(b, 5, func() (*core.Query, error) {
			return workload.RandomQuery(n, 2*n, workload.GraphLabels(g), rng)
		})
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			runQueriesRoundRobin(b, eng, qs)
		})
	}
}

// BenchmarkFig8c_RandomQueryEdges: run time vs random-query edge count
// (N = 10).
func BenchmarkFig8c_RandomQueryEdges(b *testing.B) {
	g := patentsBench(b)
	c := benchCluster(b, g, 8)
	eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
	for _, e := range []int{10, 14, 18, 20} {
		rng := rand.New(rand.NewSource(benchSeed))
		qs := benchQueries(b, 5, func() (*core.Query, error) {
			return workload.RandomQuery(10, e, workload.GraphLabels(g), rng)
		})
		b.Run(fmt.Sprintf("edges=%d", e), func(b *testing.B) {
			runQueriesRoundRobin(b, eng, qs)
		})
	}
}

// ------------------------------------------------------------- Figure 9

// BenchmarkFig9a_SpeedupDFS: run time vs machine count, DFS queries.
func BenchmarkFig9a_SpeedupDFS(b *testing.B) {
	g := patentsBench(b)
	rng := rand.New(rand.NewSource(benchSeed))
	qs := benchQueries(b, 5, func() (*core.Query, error) {
		return workload.DFSQuery(g, 8, rng)
	})
	for _, k := range []int{1, 2, 4, 8} {
		c := benchCluster(b, g, k)
		eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
		b.Run(fmt.Sprintf("machines=%d", k), func(b *testing.B) {
			runQueriesRoundRobin(b, eng, qs)
		})
	}
}

// BenchmarkFig9b_SpeedupRandom: run time vs machine count, random queries.
func BenchmarkFig9b_SpeedupRandom(b *testing.B) {
	g := patentsBench(b)
	rng := rand.New(rand.NewSource(benchSeed))
	qs := benchQueries(b, 5, func() (*core.Query, error) {
		return workload.RandomQuery(10, 20, workload.GraphLabels(g), rng)
	})
	for _, k := range []int{1, 2, 4, 8} {
		c := benchCluster(b, g, k)
		eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
		b.Run(fmt.Sprintf("machines=%d", k), func(b *testing.B) {
			runQueriesRoundRobin(b, eng, qs)
		})
	}
}

// ------------------------------------------------------------ Figure 10

// BenchmarkFig10a_GraphSize: run time vs graph size at fixed degree 16.
func BenchmarkFig10a_GraphSize(b *testing.B) {
	for _, scale := range []int{13, 15, 17} {
		g := rmat.MustGenerate(rmat.Params{Scale: scale, AvgDegree: 16, NumLabels: 64, Seed: benchSeed})
		c := benchCluster(b, g, 8)
		eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
		rng := rand.New(rand.NewSource(benchSeed))
		qs := benchQueries(b, 5, func() (*core.Query, error) {
			return workload.DFSQuery(g, 8, rng)
		})
		b.Run(fmt.Sprintf("nodes=%d", g.NumNodes()), func(b *testing.B) {
			runQueriesRoundRobin(b, eng, qs)
		})
	}
}

// BenchmarkFig10b_FixedDensity: run time vs node count with degree growing
// proportionally (fixed density).
func BenchmarkFig10b_FixedDensity(b *testing.B) {
	degree := 8
	for i, scale := range []int{13, 14, 15} {
		g := rmat.MustGenerate(rmat.Params{Scale: scale, AvgDegree: degree << i, NumLabels: 64, Seed: benchSeed})
		c := benchCluster(b, g, 8)
		eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
		rng := rand.New(rand.NewSource(benchSeed))
		qs := benchQueries(b, 5, func() (*core.Query, error) {
			return workload.DFSQuery(g, 8, rng)
		})
		b.Run(fmt.Sprintf("nodes=%d/degree=%d", g.NumNodes(), degree<<i), func(b *testing.B) {
			runQueriesRoundRobin(b, eng, qs)
		})
	}
}

// BenchmarkFig10c_Degree: run time vs average degree at fixed node count.
func BenchmarkFig10c_Degree(b *testing.B) {
	for _, degree := range []int{8, 16, 32, 64} {
		g := rmat.MustGenerate(rmat.Params{Scale: 14, AvgDegree: degree, NumLabels: 64, Seed: benchSeed})
		c := benchCluster(b, g, 8)
		eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
		rng := rand.New(rand.NewSource(benchSeed))
		qs := benchQueries(b, 5, func() (*core.Query, error) {
			return workload.RandomQuery(10, 20, workload.GraphLabels(g), rng)
		})
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			runQueriesRoundRobin(b, eng, qs)
		})
	}
}

// BenchmarkFig10d_LabelDensity: run time vs label alphabet size (label
// density ≈ 1/labels).
func BenchmarkFig10d_LabelDensity(b *testing.B) {
	for _, labels := range []int{10, 100, 1000} {
		g := rmat.MustGenerate(rmat.Params{Scale: 14, AvgDegree: 16, NumLabels: labels, Seed: benchSeed})
		c := benchCluster(b, g, 8)
		eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
		rng := rand.New(rand.NewSource(benchSeed))
		qs := benchQueries(b, 5, func() (*core.Query, error) {
			return workload.RandomQuery(10, 20, workload.GraphLabels(g), rng)
		})
		b.Run(fmt.Sprintf("labels=%d", labels), func(b *testing.B) {
			runQueriesRoundRobin(b, eng, qs)
		})
	}
}

// ------------------------------------------------------------- Ablations

// benchAblation measures one Options variant against the shared workload.
func benchAblation(b *testing.B, opts core.Options) {
	b.Helper()
	g := patentsBench(b)
	c := benchCluster(b, g, 8)
	opts.MatchBudget = 1024
	opts.Seed = benchSeed
	eng := core.NewEngine(c, opts)
	rng := rand.New(rand.NewSource(benchSeed))
	qs := benchQueries(b, 8, func() (*core.Query, error) {
		return workload.DFSQuery(g, 7, rng)
	})
	runQueriesRoundRobin(b, eng, qs)
}

// BenchmarkAblation_Full is the paper configuration (reference point).
func BenchmarkAblation_Full(b *testing.B) { benchAblation(b, core.Options{}) }

// BenchmarkAblation_Bindings disables exploration-time binding pruning
// (§3's join-only strategy).
func BenchmarkAblation_Bindings(b *testing.B) { benchAblation(b, core.Options{NoBindings: true}) }

// BenchmarkAblation_LoadSets replaces Theorem 4 load sets with all-to-all
// exchange.
func BenchmarkAblation_LoadSets(b *testing.B) { benchAblation(b, core.Options{NoLoadSets: true}) }

// BenchmarkAblation_Ordering uses the unrevised random decomposition
// instead of Algorithm 2.
func BenchmarkAblation_Ordering(b *testing.B) {
	benchAblation(b, core.Options{RandomDecomposition: true})
}

// BenchmarkAblation_JoinOrder disables cost-based join ordering.
func BenchmarkAblation_JoinOrder(b *testing.B) { benchAblation(b, core.Options{NoJoinOrderOpt: true}) }

// BenchmarkAblation_PipelineJoin contrasts block sizes for the pipelined
// join (memory/latency tradeoff of §4.2 step 3).
func BenchmarkAblation_PipelineJoin(b *testing.B) {
	for _, bs := range []int{16, 256, 1 << 20} {
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			benchAblation(b, core.Options{BlockSize: bs})
		})
	}
}

// ------------------------------------------------- micro: substrates

// BenchmarkMatchSTwigMicro isolates Algorithm 1 on one machine.
func BenchmarkMatchSTwigMicro(b *testing.B) {
	g := patentsBench(b)
	c := benchCluster(b, g, 1)
	eng := core.NewEngine(c, core.Options{MatchBudget: 1024, Seed: benchSeed})
	q := core.MustNewQuery([]string{"class000", "class001", "class002"},
		[][2]int{{0, 1}, {0, 2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Match(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloudLoad measures the Cloud.Load primitive (§2.2's random
// access path): the uncharged lookup of any vertex, and a machine's load of
// its own.
func BenchmarkCloudLoad(b *testing.B) {
	g := rmat.MustGenerate(rmat.Params{Scale: 14, AvgDegree: 16, NumLabels: 16, Seed: benchSeed})
	c := benchCluster(b, g, 8)
	ids := make([]graph.NodeID, 1024)
	rng := rand.New(rand.NewSource(benchSeed))
	for i := range ids {
		ids[i] = graph.NodeID(rng.Int63n(g.NumNodes()))
	}
	b.Run("anywhere", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Cell(ids[i%len(ids)])
		}
	})
	b.Run("local-only", func(b *testing.B) {
		m := c.Machine(0)
		local := ids[:0]
		for _, id := range ids {
			if m.Owns(id) {
				local = append(local, id)
			}
		}
		if len(local) == 0 {
			b.Skip("no local ids in sample")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.LoadLocal(local[i%len(local)])
		}
	})
}

// BenchmarkRMATGenerate measures the R-MAT substrate itself.
func BenchmarkRMATGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rmat.MustGenerate(rmat.Params{Scale: 13, AvgDegree: 8, NumLabels: 16, Seed: int64(i)})
	}
}

// BenchmarkUpdates measures the O(1) dynamic-update claim (Table 1's
// update-cost column): per-edge insert cost must not depend on graph size.
func BenchmarkUpdates(b *testing.B) {
	for _, scale := range []int{12, 16} {
		g := rmat.MustGenerate(rmat.Params{Scale: scale, AvgDegree: 8, NumLabels: 8, Seed: benchSeed})
		b.Run(fmt.Sprintf("AddEdge/nodes=%d", g.NumNodes()), func(b *testing.B) {
			c := benchCluster(b, g, 8)
			rng := rand.New(rand.NewSource(benchSeed))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := graph.NodeID(rng.Int63n(g.NumNodes()))
				v := graph.NodeID(rng.Int63n(g.NumNodes()))
				if u == v {
					continue
				}
				// Duplicate-edge errors are expected occasionally; the
				// probe cost is part of the measured operation.
				_ = c.AddEdge(u, v)
			}
		})
	}
	g := rmat.MustGenerate(rmat.Params{Scale: 14, AvgDegree: 8, NumLabels: 8, Seed: benchSeed})
	b.Run("AddNode", func(b *testing.B) {
		c := benchCluster(b, g, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.AddNode("L0"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdatePipeline measures the write path the update pipeline
// serves. Each iteration applies a fixed set of 64 edge toggles through
// Cluster.ApplyBatch in windows of the given batch size — batch=1 is the
// old one-lock-per-mutation behavior, batch=64 is what the dispatcher
// amortizes to. The writeonly variants are the ones to read for the write
// path's allocs/op and B/op: a query in the loop would contribute ~98% of
// the allocations and hide a write-path regression. The mixed variant adds one
// query per iteration for the serving-shaped number.
func BenchmarkUpdatePipeline(b *testing.B) {
	g := rmat.MustGenerate(rmat.Params{Scale: 13, AvgDegree: 8, NumLabels: 8, Seed: benchSeed})
	n := g.NumNodes()
	// A fixed toggle set: 64 node pairs with no initial edge. Adding then
	// removing them on alternating iterations keeps the graph in steady
	// state, so per-op cost does not drift with b.N.
	rng := rand.New(rand.NewSource(benchSeed))
	var pairs [][2]graph.NodeID
	for len(pairs) < 64 {
		u := graph.NodeID(rng.Int63n(n))
		v := graph.NodeID(rng.Int63n(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		pairs = append(pairs, [2]graph.NodeID{u, v})
	}
	toggle := func(b *testing.B, c *memcloud.Cluster, muts []memcloud.Mutation, i, batch int) {
		b.Helper()
		op := memcloud.MutAddEdge
		if i%2 == 1 {
			op = memcloud.MutRemoveEdge
		}
		for j, p := range pairs {
			muts[j] = memcloud.Mutation{Op: op, U: p[0], V: p[1]}
		}
		for off := 0; off < len(muts); off += batch {
			end := off + batch
			if end > len(muts) {
				end = len(muts)
			}
			for k, r := range c.ApplyBatch(muts[off:end]) {
				if r.Err != nil {
					b.Fatalf("mutation %d: %v", off+k, r.Err)
				}
			}
		}
	}
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("writeonly/batch=%d", batch), func(b *testing.B) {
			c := benchCluster(b, g, 8)
			muts := make([]memcloud.Mutation, len(pairs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				toggle(b, c, muts, i, batch)
			}
		})
	}
	b.Run("mixed/batch=64", func(b *testing.B) {
		c := benchCluster(b, g, 8)
		eng := core.NewEngine(c, core.Options{MatchBudget: 256, Seed: benchSeed})
		q := core.MustNewQuery([]string{"L0", "L1", "L2"}, [][2]int{{0, 1}, {1, 2}})
		if _, err := eng.Match(q); err != nil { // warm the scratch pool
			b.Fatal(err)
		}
		muts := make([]memcloud.Mutation, len(pairs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(b, c, muts, i, 64)
			if _, err := eng.Match(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJournaledUpdate prices the durability tax on the write path:
// the same 64-edge-toggle workload as BenchmarkUpdatePipeline, but with
// each batch encoded and appended to a write-ahead journal before
// ApplyBatch — exactly the ordering stwigd's dispatcher uses with
// -data-dir. The nosync variants show allocs/op and B/op of the
// encode+append path, which must stay allocation-flat; the fsync variant
// reports the real durability latency (hardware- and filesystem-bound).
func BenchmarkJournaledUpdate(b *testing.B) {
	g := rmat.MustGenerate(rmat.Params{Scale: 13, AvgDegree: 8, NumLabels: 8, Seed: benchSeed})
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(benchSeed))
	var pairs [][2]graph.NodeID
	for len(pairs) < 64 {
		u := graph.NodeID(rng.Int63n(n))
		v := graph.NodeID(rng.Int63n(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		pairs = append(pairs, [2]graph.NodeID{u, v})
	}
	run := func(b *testing.B, fsync bool, batch int) {
		c := benchCluster(b, g, 8)
		w, err := journal.OpenWriter(filepath.Join(b.TempDir(), "bench.wal"), 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		muts := make([]memcloud.Mutation, len(pairs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := memcloud.MutAddEdge
			if i%2 == 1 {
				op = memcloud.MutRemoveEdge
			}
			for j, p := range pairs {
				muts[j] = memcloud.Mutation{Op: op, U: p[0], V: p[1]}
			}
			for off := 0; off < len(muts); off += batch {
				end := off + batch
				if end > len(muts) {
					end = len(muts)
				}
				chunk := muts[off:end]
				body, err := journal.EncodeBatch(chunk)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.Append(body); err != nil {
					b.Fatal(err)
				}
				if fsync {
					if err := w.Sync(); err != nil {
						b.Fatal(err)
					}
				}
				for k, r := range c.ApplyBatch(chunk) {
					if r.Err != nil {
						b.Fatalf("mutation %d: %v", off+k, r.Err)
					}
				}
			}
		}
	}
	b.Run("nosync/batch=1", func(b *testing.B) { run(b, false, 1) })
	b.Run("nosync/batch=64", func(b *testing.B) { run(b, false, 64) })
	b.Run("fsync/batch=64", func(b *testing.B) { run(b, true, 64) })
}

// BenchmarkPatternParse measures the query DSL front end.
func BenchmarkPatternParse(b *testing.B) {
	const src = "MATCH (a:author)-(p:paper), (p)-(v:venue), (a)-(v), (p)-(r:reviewer)"
	for i := 0; i < b.N; i++ {
		if _, err := pattern.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentThroughput drives parallel clients against one shared
// engine (§8's query-throughput question).
func BenchmarkConcurrentThroughput(b *testing.B) {
	g := patentsBench(b)
	c := benchCluster(b, g, 8)
	eng := core.NewEngine(c, core.Options{MatchBudget: 256, Seed: benchSeed})
	rng := rand.New(rand.NewSource(benchSeed))
	qs := benchQueries(b, 8, func() (*core.Query, error) {
		return workload.DFSQuery(g, 5, rng)
	})
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := eng.Match(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkPlanner measures the proxy phase alone: decomposition, head
// selection and load sets for a representative workload query, which every
// query pays.
func BenchmarkPlanner(b *testing.B) {
	g := patentsBench(b)
	c := benchCluster(b, g, 8)
	rng := rand.New(rand.NewSource(benchSeed))
	q, err := workload.DFSQuery(g, 7, rng)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewPlanner(c, core.Options{Seed: benchSeed})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBindingsBitset isolates the binding-set data structure.
func BenchmarkBindingsBitset(b *testing.B) {
	const n = 1 << 20
	ids := make([]graph.NodeID, 4096)
	rng := rand.New(rand.NewSource(benchSeed))
	for i := range ids {
		ids[i] = graph.NodeID(rng.Int63n(n))
	}
	b.Run("SetIDs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bs := core.NewBindings(1, n)
			bs.SetIDs(0, ids)
		}
	})
	b.Run("Allows", func(b *testing.B) {
		bs := core.NewBindings(1, n)
		bs.SetIDs(0, ids)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.Allows(0, ids[i%len(ids)])
		}
	})
}
